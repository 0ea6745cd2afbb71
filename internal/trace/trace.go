// Package trace records and replays memory-operation traces. The paper
// evaluates the DOE mini-apps from traces because their binaries are
// unavailable (§5.1); this package provides the equivalent substrate: a
// compact, versioned, line-oriented text format holding one core's op
// stream per section, plus readers/writers and converters to and from the
// simulator's program representation.
//
// Format (text, '#' comments, whitespace-separated fields):
//
//	cordtrace 1
//	core <host> <tile>
//	c <cycles>              compute
//	w <addr> <size> <val>   relaxed write-through store
//	W <addr> <size> <val>   release write-through store
//	b <addr> <size> <val>   relaxed write-back store
//	B <addr> <size> <val>   release write-back store
//	x <addr> <add>          relaxed atomic fetch-add
//	X <addr> <add>          release atomic fetch-add
//	a <addr> <want>         acquire load (spin until >= want)
//	f <ord>                 barrier: rlx|rel|acq|sc
//
// Addresses are the simulator's composed physical addresses in hex.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/sim"
)

// Version is the current trace format version.
const Version = 1

// Trace is a set of per-core programs.
type Trace struct {
	Cores []noc.NodeID
	Progs []proto.Program
}

// Write serializes the trace.
func Write(w io.Writer, t *Trace) error {
	if len(t.Cores) != len(t.Progs) {
		return fmt.Errorf("trace: %d cores but %d programs", len(t.Cores), len(t.Progs))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "cordtrace %d\n", Version)
	for i, c := range t.Cores {
		fmt.Fprintf(bw, "core %d %d\n", c.Host, c.Tile)
		for _, op := range t.Progs[i] {
			if err := writeOp(bw, op); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeOp(w io.Writer, op proto.Op) error {
	switch op.Kind {
	case proto.OpCompute:
		_, err := fmt.Fprintf(w, "c %d\n", op.Cycles)
		return err
	case proto.OpStoreWT, proto.OpStoreWB:
		tag := map[struct {
			k proto.OpKind
			o proto.Ordering
		}]string{
			{proto.OpStoreWT, proto.Relaxed}: "w",
			{proto.OpStoreWT, proto.Release}: "W",
			{proto.OpStoreWB, proto.Relaxed}: "b",
			{proto.OpStoreWB, proto.Release}: "B",
		}[struct {
			k proto.OpKind
			o proto.Ordering
		}{op.Kind, op.Ord}]
		if tag == "" {
			return fmt.Errorf("trace: unencodable store %v", op)
		}
		_, err := fmt.Fprintf(w, "%s %x %d %d\n", tag, uint64(op.Addr), op.Size, op.Value)
		return err
	case proto.OpAtomic:
		tag := "x"
		if op.Ord == proto.Release {
			tag = "X"
		}
		_, err := fmt.Fprintf(w, "%s %x %d\n", tag, uint64(op.Addr), op.Value)
		return err
	case proto.OpAcquire:
		_, err := fmt.Fprintf(w, "a %x %d\n", uint64(op.Addr), op.Value)
		return err
	case proto.OpBarrier:
		_, err := fmt.Fprintf(w, "f %v\n", op.Ord)
		return err
	}
	return fmt.Errorf("trace: unencodable op kind %v", op.Kind)
}

// Read parses a trace.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	t := &Trace{}
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if !sawHeader {
			if len(f) != 2 || f[0] != "cordtrace" {
				return nil, fmt.Errorf("trace: line %d: missing header", line)
			}
			v, err := strconv.Atoi(f[1])
			if err != nil || v != Version {
				return nil, fmt.Errorf("trace: line %d: unsupported version %q", line, f[1])
			}
			sawHeader = true
			continue
		}
		if f[0] == "core" {
			if len(f) != 3 {
				return nil, fmt.Errorf("trace: line %d: core needs host and tile", line)
			}
			host, err1 := strconv.Atoi(f[1])
			tile, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil || host < 0 || tile < 0 {
				return nil, fmt.Errorf("trace: line %d: bad core %q", line, text)
			}
			t.Cores = append(t.Cores, noc.CoreID(host, tile))
			t.Progs = append(t.Progs, nil)
			continue
		}
		if len(t.Cores) == 0 {
			return nil, fmt.Errorf("trace: line %d: op before any core section", line)
		}
		op, err := parseOp(f)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Progs[len(t.Progs)-1] = append(t.Progs[len(t.Progs)-1], op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("trace: empty input")
	}
	for i, p := range t.Progs {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("trace: core %d: %w", i, err)
		}
	}
	return t, nil
}

func parseOp(f []string) (proto.Op, error) {
	bad := func(msg string) (proto.Op, error) {
		return proto.Op{}, fmt.Errorf("%s in %q", msg, strings.Join(f, " "))
	}
	switch f[0] {
	case "c":
		if len(f) != 2 {
			return bad("compute needs cycles")
		}
		cyc, err := strconv.ParseUint(f[1], 10, 63)
		if err != nil {
			return bad("bad cycle count")
		}
		return proto.Compute(sim.Time(cyc)), nil
	case "w", "W", "b", "B":
		if len(f) != 4 {
			return bad("store needs addr size value")
		}
		addr, err1 := strconv.ParseUint(f[1], 16, 64)
		size, err2 := strconv.ParseInt(f[2], 10, 32)
		val, err3 := strconv.ParseUint(f[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return bad("bad store fields")
		}
		op := proto.Op{Addr: memsys.Addr(addr), Size: int32(size), Value: val}
		switch f[0] {
		case "w":
			op.Kind, op.Ord = proto.OpStoreWT, proto.Relaxed
		case "W":
			op.Kind, op.Ord = proto.OpStoreWT, proto.Release
		case "b":
			op.Kind, op.Ord = proto.OpStoreWB, proto.Relaxed
		case "B":
			op.Kind, op.Ord = proto.OpStoreWB, proto.Release
		}
		return op, nil
	case "x", "X":
		if len(f) != 3 {
			return bad("atomic needs addr add")
		}
		addr, err1 := strconv.ParseUint(f[1], 16, 64)
		add, err2 := strconv.ParseUint(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return bad("bad atomic fields")
		}
		ord := proto.Relaxed
		if f[0] == "X" {
			ord = proto.Release
		}
		return proto.FetchAdd(memsys.Addr(addr), add, ord), nil
	case "a":
		if len(f) != 3 {
			return bad("acquire needs addr want")
		}
		addr, err1 := strconv.ParseUint(f[1], 16, 64)
		want, err2 := strconv.ParseUint(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return bad("bad acquire fields")
		}
		return proto.AcquireLoad(memsys.Addr(addr), want), nil
	case "f":
		if len(f) != 2 {
			return bad("barrier needs ordering")
		}
		switch f[1] {
		case "rlx":
			return proto.Barrier(proto.Relaxed), nil
		case "rel":
			return proto.Barrier(proto.Release), nil
		case "acq":
			return proto.Barrier(proto.Acquire), nil
		case "sc":
			return proto.Barrier(proto.SeqCst), nil
		}
		return bad("unknown barrier ordering")
	}
	return bad("unknown op tag")
}

// FromWorkload materializes a workload pattern into a trace for the given
// interconnect shape — how the DOE apps' traces are produced here.
func FromWorkload(p interface {
	Programs(noc.Config) ([]noc.NodeID, []proto.Program, error)
}, nc noc.Config) (*Trace, error) {
	cores, progs, err := p.Programs(nc)
	if err != nil {
		return nil, err
	}
	return &Trace{Cores: cores, Progs: progs}, nil
}

// Stats summarizes a trace the way Table 2 characterizes workloads.
type Stats struct {
	Cores         int
	Ops           int
	RelaxedStores int
	Releases      int
	Acquires      int
	Barriers      int
	ComputeCycles sim.Time
	// RelaxedBytes is the mean Relaxed store payload ("Relaxed Gran.").
	RelaxedBytes float64
	// ReleaseGranBytes is the mean data communicated per Release
	// ("Release Gran.").
	ReleaseGranBytes float64
	// Fanout is the mean number of distinct remote hosts a core's stores
	// target ("Comm. Fanout").
	Fanout float64
}

// Characterize computes Table 2-style statistics for a trace.
func Characterize(t *Trace) Stats {
	var s Stats
	s.Cores = len(t.Cores)
	var relaxedBytes, releaseData uint64
	var fanoutSum int
	for i, prog := range t.Progs {
		hosts := make(map[int]bool)
		var sinceRelease uint64
		for _, op := range prog {
			s.Ops++
			switch op.Kind {
			case proto.OpCompute:
				s.ComputeCycles += op.Cycles
			case proto.OpStoreWT, proto.OpStoreWB, proto.OpAtomic:
				if op.Addr.Host() != t.Cores[i].Host {
					hosts[op.Addr.Host()] = true
				}
				if op.Ord == proto.Release {
					s.Releases++
					releaseData += sinceRelease
					sinceRelease = 0
				} else {
					s.RelaxedStores++
					relaxedBytes += uint64(op.Size)
					sinceRelease += uint64(op.Size)
				}
			case proto.OpAcquire:
				s.Acquires++
			case proto.OpBarrier:
				s.Barriers++
			}
		}
		fanoutSum += len(hosts)
	}
	if s.RelaxedStores > 0 {
		s.RelaxedBytes = float64(relaxedBytes) / float64(s.RelaxedStores)
	}
	if s.Releases > 0 {
		s.ReleaseGranBytes = float64(relaxedBytes) / float64(s.Releases)
	}
	if s.Cores > 0 {
		s.Fanout = float64(fanoutSum) / float64(s.Cores)
	}
	return s
}
