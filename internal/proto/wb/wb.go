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

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/sim"
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

// cpu is the WB processor adapter: what an op issues and waits on is
// core.WBProc's Issue rule, shared with the litmus model checker; this type
// owns timing, NoC injection, stats, and obs events plus the store-hit
// pipeline width and TSO's wait for ownership.
type cpu struct {
	proto.ProcBase
	cfg Config

	// st holds the protocol state proper — ownership, dirty data, MSHR and
	// ack accounting — and decides store admission and flush eligibility.
	st      core.WBProc
	nextTag uint64
	// fetchLine is the line a TSO store miss waits to own.
	fetchLine uint64
	// hitToggle lets store hits retire at two per cycle: write-back hits
	// drain into the L1 at full pipeline width, unlike write-through stores
	// which each occupy a write-combining/egress slot.
	hitToggle bool
	// out is the reusable Issue output.
	out []core.Msg
	// step is Step, bound once so a store hit allocates nothing;
	// writeBack is sendWriteBack, bound once so a flush allocates nothing.
	step      func()
	writeBack func([]core.Msg, *core.WBLine) []core.Msg

	// fetching is TSO's stall condition, bound once so that blocking
	// allocates nothing.
	fetching func() bool
}

// onReply applies an ownership fill or a write-back/flag acknowledgment.
func (c *cpu) onReply(m *core.Msg) {
	c.st.Receive(m)
	c.Recheck()
}

// exec runs op through the core Issue rule. Under the WB scheme every store
// uses the write-back policy, and TSO orders every atomic like a release.
func (c *cpu) exec(op proto.Op) {
	cop := c.CoreOp(op)
	if op.Kind == proto.OpAtomic && c.Sys.Mode == proto.TSO {
		cop.Release = true
	}
	out, w := c.st.Issue(c.cfg.MSHRs, &cop, c.out[:0], c.writeBack)
	c.out = out
	if w.Verdict == core.Await {
		// A far atomic's stall opens before its request goes out.
		c.Finish(w)
	}
	for i := range out {
		c.send(&out[i])
	}
	switch {
	case w.Verdict == core.Await:
	case cop.Kind == core.OpStore && !cop.Release && w.Verdict == core.Done:
		c.stored(len(out) == 0, cop.Line)
	default:
		c.Finish(w)
	}
}

// stored retires a relaxed store. Hits (data reuse, no traffic) retire at
// two per cycle (see hitToggle). TSO source-orders every store: after a
// miss the next op issues only once ownership (and hence global order) is
// established.
func (c *cpu) stored(hit bool, line uint64) {
	switch {
	case hit:
		c.hitToggle = !c.hitToggle
		if c.hitToggle {
			c.Eng.Schedule(0, c.step)
		} else {
			c.Retire()
		}
	case c.Sys.Mode == proto.TSO:
		c.fetchLine = line
		c.Await(c.fetching, stats.StallStoreBuf)
	default:
		c.Retire()
	}
}

// send puts an ownership request, a flag store or a far atomic on the wire
// to its home directory.
func (c *cpu) send(m *core.Msg) {
	if m.Kind == core.MWBGetM {
		c.Sys.Net.Send(c.ID, c.Sys.DirAt(m.Dir), stats.ClassOwnReq, proto.HeaderBytes, c.Sys.NewMsg(*m))
		return
	}
	c.nextTag++
	m.Tag = c.nextTag
	class := stats.ClassReleaseData
	if m.Atomic {
		class = stats.ClassAtomic
	}
	c.Sys.Net.Send(c.ID, c.Sys.DirAt(m.Dir), class, proto.HeaderBytes+m.Size, c.Sys.NewMsg(*m))
}

// sendWriteBack writes one flushed dirty line back to its home directory.
// The write-back is the line's record itself (core.WBLine, its words by
// offset), the one WB message that is not a core.Msg; the directory returns
// it to this core once committed.
func (c *cpu) sendWriteBack(buf []core.Msg, l *core.WBLine) []core.Msg {
	c.nextTag++
	l.Tag = c.nextTag
	c.Sys.Net.Send(c.ID, c.Sys.Map.HomeOf(memsys.Addr(l.Line)), stats.ClassWriteback,
		proto.HeaderBytes+memsys.LineBytes, l)
	return buf
}

// dir is the WB home directory: grants ownership, absorbs write-backs,
// commits flags.
type dir struct {
	proto.DirBase
	// writeBack is commitLine, bound once.
	writeBack sim.DeliverFunc
	// cpus are the system's WB cores by dense index, to which committed
	// write-back records return.
	cpus []*cpu
}

func (d *dir) handle(src noc.NodeID, payload any) {
	if l, ok := payload.(*core.WBLine); ok {
		d.Eng.ScheduleDeliver(d.Sys.Timing.CommitLatency(), d.writeBack, uint64(d.Sys.Index(src)), l)
		return
	}
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadReq:
		d.HandleLoadReq(m)
	case core.MWBGetM:
		d.Later(d.Sys.Timing.LLCCycles, m)
	case core.MWBFlag:
		d.Later(d.Sys.Timing.CommitLatency(), m)
	default:
		panic(fmt.Sprintf("wb: dir %v got unexpected message kind %d", d.ID, m.Kind))
	}
}

// commitLine commits a written-back line's words in address order, returns
// the record to the writing core src (a dense index), and acknowledges the
// write-back.
func (d *dir) commitLine(src uint64, payload any) {
	l := payload.(*core.WBLine)
	l.Each(func(a, v uint64) { d.CommitValue(memsys.Addr(a), v) })
	ix, tag := int(src), l.Tag
	d.cpus[ix].st.Recycle(l)
	d.Sys.Net.Send(d.ID, d.Sys.CoreAt(ix), stats.ClassAck, proto.AckBytes,
		d.Sys.NewMsg(core.Msg{Kind: core.MWBAck, Src: ix, Dir: d.Ix, Tag: tag}))
}

// commit grants ownership or commits a flag, and rewrites the message into
// its answer to the core.
func (d *dir) commit(m *core.Msg) {
	src := d.Sys.CoreAt(m.Src)
	switch m.Kind {
	case core.MWBGetM:
		// Ownership grant without a data fill: producer buffers have no
		// remote sharer between flushes, so the grant is a control message.
		*m = core.Msg{Kind: core.MWBFill, Src: m.Src, Dir: d.Ix, Addr: m.Addr}
		d.Sys.Net.Send(d.ID, src, stats.ClassOwnData, proto.HeaderBytes, m)
	case core.MWBFlag:
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
		*m = core.Msg{Kind: core.MWBAck, Src: m.Src, Dir: d.Ix, Tag: m.Tag, Atomic: m.Atomic}
		d.Sys.Net.Send(d.ID, src, class, size, m)
	default:
		panic(fmt.Sprintf("wb: dir %v commits message kind %d", d.ID, m.Kind))
	}
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	byIx := make([]*cpu, sys.Nodes())
	for _, id := range sys.Dirs() {
		d := &dir{cpus: byIx}
		d.InitBase(sys, id)
		d.Commit = d.commit
		d.writeBack = d.commitLine
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{cfg: p.Cfg, st: core.NewWBProc()}
		c.InitBase(sys, id, &sys.Run.Procs[i])
		byIx[c.Ix] = c
		c.Exec = c.exec
		c.step = c.Step
		c.writeBack = c.sendWriteBack
		c.Waiting = func() bool { return c.st.Blocked(c.cfg.MSHRs, c.Wait) }
		c.OnReply = c.onReply
		c.fetching = func() bool { return c.st.Fetching(c.fetchLine) }
		sys.Net.Register(id, c.Handle)
		cpus[i] = c
	}
	return cpus
}
