// Package workload generates the memory-operation traces the evaluation
// runs: a parameterized producer micro-benchmark (§5.3's sensitivity
// studies), synthetic equivalents of the ten end-to-end applications of
// Table 2 (Pannotia, Chai and DOE mini-apps), and the ATA storage-stress
// workload of §5.4.
//
// The paper evaluates the DOE apps from traces; here every application is a
// deterministic trace generator parameterized by the characteristics
// Table 2 and §5.2 report: Relaxed store granularity, synchronization
// (Release) granularity, communication fan-out, compute-to-communication
// ratio, and write locality. DESIGN.md documents this substitution.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/sim"
)

// Pattern describes a bulk-synchronous communication workload: one rank per
// host (running on core 0) that, each round, writes data to Fanout partner
// hosts, publishes a Release flag per partner, optionally computes, and
// acquires the flags its in-neighbors published.
type Pattern struct {
	Name string
	// Hosts is the number of participating PUs (<= system hosts).
	Hosts int
	// RanksPerHost runs several communicating ranks per host (default 1);
	// rank (h, k) exchanges with slot k of the partner hosts, multiplying
	// pressure on the statically partitioned directory tables.
	RanksPerHost int
	// Rounds is the number of communication rounds.
	Rounds int
	// RelaxedBytes is the Relaxed store granularity (Table 2: word or line).
	RelaxedBytes int
	// SyncBytes / SyncBytesMax bound the data communicated per Release
	// (Table 2's Release granularity). When SyncBytesMax > SyncBytes the
	// per-round size is sampled log-uniformly from the range.
	SyncBytes    int
	SyncBytesMax int
	// Fanout is the number of partner hosts each rank writes per round.
	Fanout int
	// ComputeCycles is the local computation per round.
	ComputeCycles sim.Time
	// Rewrite is the number of times each location is stored per round
	// (temporal write locality; write-back caches coalesce rewrites).
	Rewrite int
	// RewriteInterleaved spreads the rewrites across sweeps of the whole
	// buffer (as graph relaxation revisits vertices) instead of storing each
	// location back-to-back; interleaved rewrites defeat the write-through
	// protocols' write-combining buffer while write-back caches still
	// coalesce them.
	RewriteInterleaved bool
	// TightEvery, when positive, makes every TightEvery-th round acquire the
	// *current* round's flags (a tightly coupled phase boundary) instead of
	// the usual one-round-slack split-phase acquire.
	TightEvery int
	// LineUtil is the average bytes written per touched cache line (spatial
	// locality: 64 = dense streaming, RelaxedBytes = fully scattered).
	LineUtil int
	// ProducerOnly omits consumers and per-round acquires; each round ends
	// with a Release barrier (wait for release acknowledgment / flush), as
	// in the §5.3 micro-benchmark's single issuing thread.
	ProducerOnly bool
	// MPIncompatible marks workloads whose synchronization pattern is
	// broken by message passing's point-to-point ordering (TQH, §3.2).
	MPIncompatible bool
	// UseAtomics publishes flags with Release far fetch-adds instead of
	// Release stores (TQH's task-queue pattern: Table 2's "stores or
	// atomics"). The producer then blocks on each atomic's value response,
	// which caps how much any ordering protocol can help.
	UseAtomics bool
	// Seed drives per-round size sampling.
	Seed int64
}

// Validate reports parameter errors.
func (p Pattern) Validate() error {
	switch {
	case p.Hosts < 2:
		return fmt.Errorf("workload %s: need >= 2 hosts, have %d", p.Name, p.Hosts)
	case p.Rounds < 1:
		return fmt.Errorf("workload %s: need >= 1 round", p.Name)
	case p.RelaxedBytes < 1 || p.RelaxedBytes > 4096:
		return fmt.Errorf("workload %s: RelaxedBytes = %d out of range", p.Name, p.RelaxedBytes)
	case p.SyncBytes < 1:
		return fmt.Errorf("workload %s: SyncBytes must be >= 1", p.Name)
	case p.SyncBytesMax != 0 && p.SyncBytesMax < p.SyncBytes:
		return fmt.Errorf("workload %s: SyncBytesMax < SyncBytes", p.Name)
	case p.Fanout < 1 || p.Fanout >= p.Hosts:
		return fmt.Errorf("workload %s: Fanout = %d must be in [1, hosts-1]", p.Name, p.Fanout)
	case p.Rewrite < 1:
		return fmt.Errorf("workload %s: Rewrite must be >= 1", p.Name)
	case p.LineUtil < p.RelaxedBytes && p.RelaxedBytes <= memsys.LineBytes:
		return fmt.Errorf("workload %s: LineUtil %d below store granularity", p.Name, p.LineUtil)
	case p.RanksPerHost < 0 || p.RanksPerHost > 8:
		return fmt.Errorf("workload %s: RanksPerHost = %d out of range", p.Name, p.RanksPerHost)
	case p.ComputeCycles > maxComputeCycles:
		return fmt.Errorf("workload %s: ComputeCycles = %d out of range (a negative value converted to sim.Time wraps here)",
			p.Name, p.ComputeCycles)
	}
	return nil
}

// maxComputeCycles bounds per-round compute. sim.Time is unsigned, so a
// negative int converted into the field lands far above this — the bound is
// what lets Validate reject such wrap-arounds instead of simulating for 2^63
// cycles.
const maxComputeCycles = sim.Time(1) << 62

// ranksPerHost resolves the default.
func (p Pattern) ranksPerHost() int {
	if p.RanksPerHost < 1 {
		return 1
	}
	return p.RanksPerHost
}

// dataSlice and flagSlice spread each (source rank, partner) pair's buffers
// across the destination host's directory slices so that one partner maps to
// one directory (matching the paper's fan-out model).
func dataSlice(src, tiles int) int { return src % tiles }

// dataRegion returns the base address of rank src's write buffer at host dst.
func dataRegion(src, dst, tiles int) memsys.Addr {
	return memsys.Compose(dst, dataSlice(src, tiles), uint64(src)<<22)
}

// flagAddr returns rank src's flag at host dst (same slice as its data, so a
// fan-out of one partner involves exactly one directory).
func flagAddr(src, dst, tiles int) memsys.Addr {
	return memsys.Compose(dst, dataSlice(src, tiles), uint64(src)<<22|1<<21)
}

// syncSize samples the round's communicated bytes.
func (p Pattern) syncSize(rng *rand.Rand) int {
	if p.SyncBytesMax <= p.SyncBytes {
		return p.SyncBytes
	}
	lo, hi := math.Log(float64(p.SyncBytes)), math.Log(float64(p.SyncBytesMax))
	return int(math.Exp(lo + rng.Float64()*(hi-lo)))
}

// writeData appends the Relaxed stores that communicate size bytes into the
// region, honoring the spatial (LineUtil) and temporal (Rewrite) locality
// parameters. Values carry the round number so consumers (and tests) can
// verify ordering.
func (p Pattern) writeData(prog proto.Program, region memsys.Addr, size int, value uint64) proto.Program {
	uniq := size / p.RelaxedBytes
	if uniq < 1 {
		uniq = 1
	}
	perLine := p.LineUtil / p.RelaxedBytes
	if perLine < 1 {
		perLine = 1
	}
	if p.RelaxedBytes >= memsys.LineBytes {
		perLine = 1
	}
	addrOf := func(i int) memsys.Addr {
		var off uint64
		if p.RelaxedBytes >= memsys.LineBytes {
			off = uint64(i * p.RelaxedBytes)
		} else {
			line := i / perLine
			inLine := i % perLine
			off = uint64(line*memsys.LineBytes + inLine*p.RelaxedBytes)
		}
		return region + memsys.Addr(off)
	}
	emit := func(i int) {
		prog = append(prog, proto.Op{
			Kind: proto.OpStoreWT, Ord: proto.Relaxed,
			Addr: addrOf(i), Size: p.RelaxedBytes, Value: value,
		})
	}
	if p.RewriteInterleaved {
		for w := 0; w < p.Rewrite; w++ {
			for i := 0; i < uniq; i++ {
				emit(i)
			}
		}
	} else {
		for i := 0; i < uniq; i++ {
			for w := 0; w < p.Rewrite; w++ {
				emit(i)
			}
		}
	}
	return prog
}

// Programs builds the per-core programs for the given interconnect shape.
// Rank (h, k) runs on core k of host h and communicates with slot k of
// hosts (h+1)%Hosts .. (h+Fanout)%Hosts.
func (p Pattern) Programs(nc noc.Config) ([]noc.NodeID, []proto.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Hosts > nc.Hosts {
		return nil, nil, fmt.Errorf("workload %s: needs %d hosts, system has %d", p.Name, p.Hosts, nc.Hosts)
	}
	tiles := nc.TilesPerHost
	rph := p.ranksPerHost()
	if rph > tiles {
		return nil, nil, fmt.Errorf("workload %s: %d ranks per host exceed %d tiles", p.Name, rph, tiles)
	}
	ranks := p.Hosts * rph
	if p.ProducerOnly {
		ranks = 1
	}
	cores := make([]noc.NodeID, ranks)
	progs := make([]proto.Program, ranks)
	for r := 0; r < ranks; r++ {
		host, slot := r/rph, r%rph
		cores[r] = noc.CoreID(host, slot)
		rng := rand.New(rand.NewSource(p.Seed + 7919)) // same sizes for every rank
		var prog proto.Program
		if r > 0 { // every rank draws the same sizes: rank 0's length
			prog = make(proto.Program, 0, len(progs[0]))
		}
		for round := 0; round < p.Rounds; round++ {
			v := uint64(round + 1)
			size := p.syncSize(rng)
			if p.ComputeCycles > 0 {
				prog = append(prog, proto.Compute(p.ComputeCycles))
			}
			// Write phase: data to every partner first (Fig. 5's pattern),
			// so the Release epoch spans Fanout directories.
			for k := 1; k <= p.Fanout; k++ {
				dst := (host+k)%p.Hosts*rph + slot
				prog = p.writeData(prog, dataRegion(r, dst/rph, tiles), size, v)
			}
			// Publish phase. The producer-only micro-benchmark follows
			// Fig. 5's pattern exactly: m Relaxed stores to the first n-1
			// directories, then a single Release to the last. The two-sided
			// applications publish one flag per partner.
			publish := func(dst int) proto.Op {
				if p.UseAtomics {
					// Task-queue style: bump the flag with a Release
					// fetch-add (the flag reaches v after v rounds).
					return proto.FetchAdd(flagAddr(r, dst, tiles), 1, proto.Release)
				}
				return proto.StoreRelease(flagAddr(r, dst, tiles), 8, v)
			}
			if p.ProducerOnly {
				prog = append(prog, publish((host+p.Fanout)%p.Hosts))
			} else {
				for k := 1; k <= p.Fanout; k++ {
					prog = append(prog, publish((host+k)%p.Hosts))
				}
			}
			if p.ProducerOnly {
				// The micro-benchmark thread waits for its releases to
				// complete before the next round (release acknowledgment /
				// posted-write flush).
				prog = append(prog, proto.Barrier(proto.Release))
				continue
			}
			// Consume phase, double-buffered (MPI split-phase style): wait
			// for the *previous* round's flags from in-neighbors, so one
			// round of slack hides release-propagation latency. The final
			// round's flags are collected after the loop.
			want := v - 1
			if p.TightEvery > 0 && (round+1)%p.TightEvery == 0 {
				want = v // tightly coupled phase boundary
			}
			if want > 0 {
				for k := 1; k <= p.Fanout; k++ {
					src := (host-k+p.Hosts)%p.Hosts*rph + slot
					prog = append(prog, proto.AcquireLoad(flagAddr(src, host, tiles), want))
				}
			}
		}
		if !p.ProducerOnly {
			for k := 1; k <= p.Fanout; k++ {
				src := (host-k+p.Hosts)%p.Hosts*rph + slot
				prog = append(prog, proto.AcquireLoad(flagAddr(src, host, tiles), uint64(p.Rounds)))
			}
		}
		prog = append(prog, proto.Barrier(proto.SeqCst))
		progs[r] = prog
	}
	return cores, progs, nil
}

// Micro returns the §5.3 sensitivity micro-benchmark: a single producer
// thread repeatedly writing write-through stores to other hosts' memory.
func Micro(storeGran, syncGran, fanout, rounds int) Pattern {
	return Pattern{
		Name:         fmt.Sprintf("micro/s%d/y%d/f%d", storeGran, syncGran, fanout),
		Hosts:        fanout + 1,
		Rounds:       rounds,
		RelaxedBytes: storeGran,
		SyncBytes:    syncGran,
		Fanout:       fanout,
		Rewrite:      1,
		LineUtil:     memsys.LineBytes,
		ProducerOnly: true,
		Seed:         1,
	}
}

// ATA returns the §5.4 storage-stress workload: every rank continuously
// alltoall-broadcasts 8 bytes, maximizing fan-out and minimizing
// synchronization granularity.
func ATA(hosts, rounds int) Pattern {
	return Pattern{
		Name:         "ATA",
		Hosts:        hosts,
		Rounds:       rounds,
		RelaxedBytes: 8,
		SyncBytes:    8,
		Fanout:       hosts - 1,
		Rewrite:      1,
		LineUtil:     memsys.LineBytes,
		Seed:         2,
	}
}
