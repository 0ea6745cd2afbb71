// Package mp implements the message-passing baseline (§3.2): PCIe-style
// posted write transactions. Writes are never acknowledged; ordering is
// enforced at the *destination* host, but only point-to-point — each
// (source, destination-host) stream commits in FIFO order, with no
// cumulativity across hosts. This is why MP is fast and lean on the wire yet
// cannot provide release consistency for multi-PU programs (the ISA2 litmus
// outcome of Fig. 3 is reachable; see the litmus package).
//
// Barriers are modeled as PCIe-style flushing reads: a zero-byte read to
// every host the core has posted writes to, completing when those writes
// have committed. Under TSO the paper uses totally ordered MP as an upper
// bound for performance and traffic; the wire behaviour is identical to the
// RC mode here.
//
// The ordering decisions — FIFO drain, flush eligibility, sequence
// assignment — are core.MPProc/core.MPOrderer rules shared with the litmus
// model checker; this package owns timing, NoC injection, stats, and obs.
// Posted writes travel as core.MMPStore and flushing reads as core.MMPFlush,
// whose Dir names the destination host (the ordering domain).
package mp

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/stats"
)

// Protocol is the proto.Builder for message passing.
type Protocol struct{}

// New returns the message-passing protocol.
func New() *Protocol { return &Protocol{} }

// Name implements proto.Builder.
func (p *Protocol) Name() string { return "MP" }

// orderer adapts a host's ingress ordering point (core.MPOrderer) to the
// simulator: the core rule decides commit and flush eligibility; this type
// hands the commits and flush responses to the host's slices and records
// observability events. One orderer is shared by all slices of a host.
type orderer struct {
	st   core.MPOrderer
	dirs map[int]*dir // by dense index
	port *dir         // the host's port slice (tile 0), which answers flushes
}

// submit hands a posted write from core src, arrived at slice at, to the
// ordering point.
func (o *orderer) submit(src noc.NodeID, m *core.Msg, at *dir) {
	inOrder := o.st.Submit(*m,
		func(w core.Msg) { d := o.dirs[w.Dir]; d.Later(d.Sys.Timing.CommitLatency(), d.Sys.NewMsg(w)) },
		o.respondFlush)
	if !inOrder {
		// Out-of-order arrival: held at the ordering point until the gap fills.
		rec := at.Obs
		rec.DirDepth(o.st.PendingFor(m.Src))
		if rec.Take() {
			rec.Record(obs.Event{At: at.Eng.Now(), Kind: obs.KRetry,
				Src: at.ID.Obs(), Dst: src.Obs(), Class: stats.ClassRelaxedData,
				Seq: m.Seq})
		}
	}
}

// respondFlush completes a flushing read after the commit pipeline drains
// (one LLC commit latency), from the host's port slice.
func (o *orderer) respondFlush(f core.Msg) {
	o.port.Later(o.port.Sys.Timing.CommitLatency(), o.port.Sys.NewMsg(f))
}

// dir is a directory slice under MP: pure commit target behind the orderer.
type dir struct {
	proto.DirBase
	ord *orderer
}

func (d *dir) handle(src noc.NodeID, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadReq:
		d.HandleLoadReq(m)
	case core.MMPStore:
		d.ord.submit(src, m, d)
		d.Sys.FreeMsg(m)
	case core.MMPFlush:
		// Answer now, or park in the core rule until Submit's drain covers it.
		if d.ord.st.Flush(*m) {
			d.ord.respondFlush(*m)
		}
		d.Sys.FreeMsg(m)
	default:
		panic(fmt.Sprintf("mp: dir %v got unexpected message kind %d", d.ID, m.Kind))
	}
}

// commit is the delayed work on a message the slice holds: a write's LLC
// commit (an atomic becomes its value response) or, at the port slice, a
// flushing read's response.
func (d *dir) commit(m *core.Msg) {
	switch m.Kind {
	case core.MMPStore:
		if !m.Atomic {
			d.CommitValue(memsys.Addr(m.Addr), m.Val)
			d.Sys.FreeMsg(m)
			return
		}
		old := d.FetchAdd(memsys.Addr(m.Addr), m.Val)
		*m = core.Msg{Kind: core.MAtomicResp, Src: m.Src, Dir: d.Ix, Val: old, Tag: m.Tag}
		d.Sys.Net.Send(d.ID, d.Sys.CoreAt(m.Src), stats.ClassAtomicResp, proto.AckBytes+8, m)
	case core.MMPFlush:
		dst := d.Sys.CoreAt(m.Src)
		if rec := d.Obs; rec.Take() {
			rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KNotify,
				Src: d.ID.Obs(), Dst: dst.Obs(), Seq: m.Tag})
		}
		*m = core.Msg{Kind: core.MMPFlushOK, Src: m.Src, Dir: m.Dir, Tag: m.Tag}
		d.Sys.Net.Send(d.ID, dst, stats.ClassAck, proto.AckBytes, m)
	default:
		panic(fmt.Sprintf("mp: dir %v commits message kind %d", d.ID, m.Kind))
	}
}

// cpu is the MP processor adapter: what an op posts and waits on is
// core.MPProc's Issue rule, shared with the litmus model checker; this type
// owns timing, NoC injection, stats, and obs events.
type cpu struct {
	proto.ProcBase
	// st assigns per-destination-host sequence numbers (the ordering
	// domains of core.MPProc are hosts here) and counts a barrier's
	// unanswered flushing reads.
	st      core.MPProc
	nextTag uint64
	// out is the reusable Issue output.
	out []core.Msg
	// sending holds a stall open while its op's messages go out.
	sending bool
}

// onReply applies a flushing read's answer or an atomic's value.
func (c *cpu) onReply(m *core.Msg) {
	if rec := c.Obs; m.Kind == core.MMPFlushOK && rec.Take() {
		rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
			Src: c.ID.Obs(), Seq: m.Tag})
	}
	c.st.Receive(m)
	c.Recheck()
}

// exec runs op through the core Issue rule. An atomic or a barrier's flush
// fan-out opens its stall before the first send, so a barrier with no flush
// targets still records a (zero-length) stall.
func (c *cpu) exec(op proto.Op) {
	cop := c.CoreOp(op)
	out, w := c.st.Issue(&cop, c.out[:0])
	c.out = out
	if w.Verdict != core.Await && w.Verdict != core.Retry {
		c.post(op, out)
		c.Finish(w)
		return
	}
	c.sending = true
	c.Finish(w)
	c.post(op, out)
	c.sending = false
	c.Recheck()
}

// post sends posted writes into their destination host's FIFO ordering
// domain, a non-posted atomic likewise, and flushing reads to each host's
// port slice. Atomics and flushing reads are tagged.
func (c *cpu) post(op proto.Op, out []core.Msg) {
	for i := range out {
		m := &out[i]
		class, dst, bytes := stats.ClassRelaxedData, c.Sys.DirAt(m.Dir), proto.HeaderBytes+m.Size
		switch {
		case m.Kind == core.MMPFlush:
			class, dst, bytes = stats.ClassBarrier, noc.DirID(m.Dir, 0), proto.LoadReqBytes
		case m.Atomic:
			class = stats.ClassAtomic
		case op.Ord == proto.Release:
			class = stats.ClassReleaseData
		}
		if m.Kind == core.MMPFlush || m.Atomic {
			c.nextTag++
			m.Tag = c.nextTag
		}
		c.Sys.Net.Send(c.ID, dst, class, bytes, c.Sys.NewMsg(*m))
	}
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	cfg := sys.Net.Config()
	orderers := make([]*orderer, cfg.Hosts)
	for h := range orderers {
		orderers[h] = &orderer{st: core.NewMPOrderer(sys.Nodes()), dirs: make(map[int]*dir)}
	}
	for _, id := range sys.Dirs() {
		o := orderers[id.Host]
		d := &dir{ord: o}
		d.InitBase(sys, id)
		d.Commit = d.commit
		o.dirs[sys.Index(id)] = d
		if id.Tile == 0 {
			o.port = d
		}
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{st: core.NewMPProc(cfg.Hosts)}
		c.InitBase(sys, id, &sys.Run.Procs[i])
		c.Exec = c.exec
		c.Waiting = func() bool { return c.sending || c.st.Blocked(c.Wait) }
		c.OnReply = c.onReply
		sys.Net.Register(id, c.Handle)
		cpus[i] = c
	}
	return cpus
}
