// Package wb implements the source-ordered write-back baseline (the "WB"
// scheme of §5.2): a MESI-style protocol in which stores allocate ownership
// of the cache line in the producer's private cache, and a Release flushes
// all dirty lines to their home directories before publishing the flag.
//
// The model captures exactly the effects the paper attributes to WB:
//   - data reuse: repeated stores to an owned line generate no traffic, so
//     workloads with write locality (PR, SSSP) benefit;
//   - data movement cost: every communicated line costs an ownership fill
//     (request + line) plus a write-back (line + ack), roughly doubling
//     write-through's wire bytes for streaming communication;
//   - source ordering: the Release stalls for MSHR drain and write-back
//     acknowledgments, a longer critical path than SO's single ack wait.
//
// Simplifications (documented in DESIGN.md): producer caches are large
// enough to hold the communication working set; a Release writes dirty lines
// back but retains ownership (an update-style flush, as in heterogeneous
// write-back RC protocols), so steady-state epochs pay write-backs but not
// refetches; ownership grants carry no data because producer buffers have no
// remote sharer between flushes; and concurrent sharers of a data line are
// not modeled because the evaluated workloads partition producer buffers.
//
// Ownership tracking, the dirty table, and the flush-before-flag release
// discipline are core.WBProc rules shared with the litmus model checker;
// this package owns timing, NoC injection, stats, and obs.
package wb

import (
	"fmt"
	"slices"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/stats"
)

// Config tunes the write-back processor.
type Config struct {
	// MSHRs bounds outstanding ownership fills.
	MSHRs int
}

// DefaultConfig matches a modest out-of-order core.
func DefaultConfig() Config { return Config{MSHRs: 32} }

// Protocol is the proto.Builder for the write-back baseline.
type Protocol struct {
	Cfg Config
}

// New returns WB with the default configuration.
func New() *Protocol { return &Protocol{Cfg: DefaultConfig()} }

// Name implements proto.Builder.
func (p *Protocol) Name() string { return "WB" }

// lineData writes a dirty line back to its home directory. Every other WB
// message is a core.Msg (MWBGetM, MWBFill, MWBFlag, MWBAck). This one is
// not, because it carries every dirty word of the line: a map in core.Msg
// would make Msg non-comparable and the checker's message multisets
// pointerful. The checker sends one MWBData per word instead.
type lineData struct {
	Line memsys.Addr
	Vals map[uint64]uint64
	Tag  uint64
}

type cpu struct {
	proto.ProcBase
	cfg Config

	// st holds the protocol state proper — ownership, dirty data, MSHR and
	// ack accounting — and decides store admission and flush eligibility.
	st      core.WBProc
	nextTag uint64
	// atomicTag is the far atomic whose response the core waits on; 0 when
	// none (tags start at 1).
	atomicTag uint64
	// fetchLine is the line a TSO store miss waits to own.
	fetchLine uint64
	// hitToggle lets store hits retire at two per cycle: write-back hits
	// drain into the L1 at full pipeline width, unlike write-through stores
	// which each occupy a write-combining/egress slot.
	hitToggle bool

	// Stall conditions, bound once so that blocking allocates nothing.
	atomicBusy, mshrFull, fetching, cannotFlush, undrained func() bool
}

func (c *cpu) handle(_ noc.NodeID, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadResp:
		c.HandleLoadResp(m)
	case core.MWBFill:
		c.st.Fill(m.Addr)
		c.Recheck()
	case core.MWBAck:
		c.st.NoteAck()
		if m.Tag == c.atomicTag {
			c.atomicTag = 0
		}
		c.Recheck()
	default:
		panic(fmt.Sprintf("wb: cpu %v got unexpected message kind %d", c.ID, m.Kind))
	}
}

// sendFlag writes a flag store or far atomic through to its home directory.
func (c *cpu) sendFlag(op proto.Op, class stats.MsgClass, atomic bool, tag uint64) {
	home := c.Sys.Map.HomeOf(op.Addr)
	c.Sys.Net.Send(c.ID, home, class, proto.HeaderBytes+op.Size,
		&core.Msg{Kind: core.MWBFlag, Src: c.Ix, Dir: c.Sys.Index(home),
			Addr: uint64(op.Addr), Val: op.Value, Size: op.Size, Atomic: atomic, Tag: tag})
}

func (c *cpu) exec(op proto.Op) {
	switch op.Kind {
	case proto.OpAtomic:
		// Atomics execute at the home directory (uncached far atomics);
		// Release atomics flush dirty lines first, like Release stores.
		if (op.Ord == proto.Release || op.Ord == proto.SeqCst || c.Sys.Mode == proto.TSO) && !c.flushed() {
			return
		}
		c.nextTag++
		c.st.NoteFlag()
		c.atomicTag = c.nextTag
		c.Await(c.atomicBusy, stats.StallAcquire)
		c.sendFlag(op, stats.ClassAtomic, true, c.atomicTag)
	case proto.OpStoreWT, proto.OpStoreWB:
		// Under the WB scheme all stores use the write-back policy.
		if op.Ord == proto.Release {
			// Flush all dirty lines, wait for their acknowledgments, then
			// publish the flag (which the next Release's drain will wait on).
			if c.flushed() {
				c.nextTag++
				c.st.NoteFlag()
				c.sendFlag(op, stats.ClassReleaseData, false, c.nextTag)
				c.Retire()
			}
		} else {
			c.execStore(op)
		}
	case proto.OpBarrier:
		switch op.Ord {
		case proto.Release, proto.SeqCst:
			if c.flushed() {
				c.Retire()
			}
		default:
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("wb: unexpected op %v", op))
	}
}

func (c *cpu) execStore(op proto.Op) {
	line := op.Addr.Line()
	switch c.st.StoreAdmit(c.cfg.MSHRs, uint64(line)) {
	case core.WBHit:
		// Write hit (or hit-under-miss): data reuse, no traffic. Hits
		// retire at two per cycle (see hitToggle).
		c.st.RecordDirty(uint64(line), uint64(op.Addr), op.Value)
		c.hitToggle = !c.hitToggle
		if c.hitToggle {
			c.Eng.Schedule(0, c.Step)
		} else {
			c.Retire()
		}
	case core.WBMSHRFull:
		c.Retry(c.mshrFull, stats.StallStoreBuf)
	case core.WBMiss:
		c.st.BeginFetch(uint64(line))
		c.st.RecordDirty(uint64(line), uint64(op.Addr), op.Value)
		home := c.Sys.Map.HomeOf(line)
		c.Sys.Net.Send(c.ID, home, stats.ClassOwnReq, proto.HeaderBytes,
			&core.Msg{Kind: core.MWBGetM, Src: c.Ix, Dir: c.Sys.Index(home), Addr: uint64(line)})
		if c.Sys.Mode == proto.TSO {
			// TSO source-orders every store: the next op retires only after
			// ownership (and hence global order) is established.
			c.fetchLine = uint64(line)
			c.Await(c.fetching, stats.StallStoreBuf)
			return
		}
		c.Retire()
	}
}

// flushed drains the MSHRs, writes every dirty line back and reports
// whether all write-backs and flag stores are acknowledged; if not, the op
// is retried once they are. The retry finds nothing dirty and no fetch
// outstanding (a blocked core issues nothing), so it passes straight on.
func (c *cpu) flushed() bool {
	if !c.st.CanFlush() {
		c.Retry(c.cannotFlush, stats.StallAckWait)
		return false
	}
	c.st.FlushLines(func(line uint64, vals map[uint64]uint64) {
		c.nextTag++
		home := c.Sys.Map.HomeOf(memsys.Addr(line))
		c.Sys.Net.Send(c.ID, home, stats.ClassWriteback,
			proto.HeaderBytes+memsys.LineBytes,
			&lineData{Line: memsys.Addr(line), Vals: vals, Tag: c.nextTag})
	})
	if !c.st.Drained() {
		c.Retry(c.undrained, stats.StallAckWait)
		return false
	}
	return true
}

// dir is the WB home directory: grants ownership, absorbs write-backs,
// commits flags.
type dir struct {
	proto.DirBase
}

func (d *dir) handle(src noc.NodeID, payload any) {
	if l, ok := payload.(*lineData); ok {
		d.Eng.Schedule(d.Sys.Timing.CommitLatency(), func() {
			addrs := make([]uint64, 0, len(l.Vals))
			for a := range l.Vals {
				addrs = append(addrs, a)
			}
			slices.Sort(addrs)
			for _, a := range addrs {
				d.CommitValue(memsys.Addr(a), l.Vals[a])
			}
			d.Sys.Net.Send(d.ID, src, stats.ClassAck, proto.AckBytes,
				&core.Msg{Kind: core.MWBAck, Src: d.Sys.Index(src), Dir: d.Ix, Tag: l.Tag})
		})
		return
	}
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadReq:
		d.HandleLoadReq(src, m)
	case core.MWBGetM:
		// Ownership grant without a data fill: producer buffers have no
		// remote sharer between flushes, so the grant is a control message.
		d.Eng.Schedule(d.Sys.Timing.LLCCycles, func() {
			d.Sys.Net.Send(d.ID, src, stats.ClassOwnData, proto.HeaderBytes,
				&core.Msg{Kind: core.MWBFill, Src: m.Src, Dir: d.Ix, Addr: m.Addr})
		})
	case core.MWBFlag:
		d.Eng.Schedule(d.Sys.Timing.CommitLatency(), func() {
			class, size := stats.ClassAck, proto.AckBytes
			if m.Atomic {
				d.FetchAdd(memsys.Addr(m.Addr), m.Val)
				class, size = stats.ClassAtomicResp, proto.AckBytes+8
			} else {
				d.CommitValue(memsys.Addr(m.Addr), m.Val)
				if rec := d.Obs; rec.Take() {
					rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRelCommit,
						Src: d.ID.Obs(), Dst: src.Obs(), Seq: m.Tag, Addr: m.Addr})
				}
			}
			d.Sys.Net.Send(d.ID, src, class, size,
				&core.Msg{Kind: core.MWBAck, Src: m.Src, Dir: d.Ix, Tag: m.Tag})
		})
	default:
		panic(fmt.Sprintf("wb: dir %v got unexpected message kind %d", d.ID, m.Kind))
	}
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	for _, id := range sys.Dirs() {
		d := &dir{}
		d.InitBase(sys, id)
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{cfg: p.Cfg, st: core.NewWBProc()}
		c.InitBase(sys, id, &sys.Run.Procs[i])
		c.Exec = c.exec
		c.atomicBusy = func() bool { return c.atomicTag != 0 }
		c.mshrFull = func() bool { return c.st.MSHR >= c.cfg.MSHRs }
		c.fetching = func() bool { return c.st.Fetching[c.fetchLine] }
		c.cannotFlush = func() bool { return !c.st.CanFlush() }
		c.undrained = func() bool { return !c.st.Drained() }
		sys.Net.Register(id, c.handle)
		cpus[i] = c
	}
	return cpus
}
