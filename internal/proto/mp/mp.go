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
	"cord/internal/sim"
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
// schedules the commits, answers flushing reads on the wire, and records
// observability events. One orderer is shared by all slices of a host.
type orderer struct {
	sys  *proto.System
	host int
	// eng and obs are the host shard's engine and recorder (see
	// proto.ProcBase); the orderer is host-resident state.
	eng  *sim.Engine
	obs  *obs.Recorder
	st   core.MPOrderer
	dirs map[int]*dir // by dense index
}

func newOrderer(sys *proto.System, host int) *orderer {
	return &orderer{
		sys:  sys,
		host: host,
		eng:  sys.EngOf(host),
		obs:  sys.ObsOf(host),
		st:   core.NewMPOrderer(sys.Nodes()),
		dirs: make(map[int]*dir),
	}
}

// submit hands a posted write from core src, arrived at slice at, to the
// ordering point.
func (o *orderer) submit(src noc.NodeID, m *core.Msg, at *dir) {
	inOrder := o.st.Submit(*m,
		func(w core.Msg) { o.dirs[w.Dir].commit(w) },
		o.respondFlush)
	if !inOrder {
		// Out-of-order arrival: held at the ordering point until the gap fills.
		rec := o.obs
		rec.DirDepth(o.st.PendingFor(m.Src))
		if rec.Take() {
			rec.Record(obs.Event{At: o.eng.Now(), Kind: obs.KRetry,
				Src: at.ID.Obs(), Dst: src.Obs(), Class: stats.ClassRelaxedData,
				Seq: m.Seq})
		}
	}
}

// respondFlush completes a flushing read after the commit pipeline drains
// (one LLC commit latency), from the host's port slice.
func (o *orderer) respondFlush(f core.Msg) {
	o.eng.Schedule(o.sys.Timing.CommitLatency(), func() {
		port, dst := noc.DirID(o.host, 0), o.sys.CoreAt(f.Src)
		if rec := o.obs; rec.Take() {
			rec.Record(obs.Event{At: o.eng.Now(), Kind: obs.KNotify,
				Src: port.Obs(), Dst: dst.Obs(), Seq: f.Tag})
		}
		o.sys.Net.Send(port, dst, stats.ClassAck, proto.AckBytes,
			&core.Msg{Kind: core.MMPFlushOK, Src: f.Src, Dir: f.Dir, Tag: f.Tag})
	})
}

// flush answers a flushing read now, or parks it in the core rule until
// Submit's drain covers it.
func (o *orderer) flush(f *core.Msg) {
	if o.st.Flush(*f) {
		o.respondFlush(*f)
	}
}

// dir is a directory slice under MP: pure commit target behind the orderer.
type dir struct {
	proto.DirBase
	ord *orderer
}

func (d *dir) handle(src noc.NodeID, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadReq:
		d.HandleLoadReq(src, m)
	case core.MMPStore:
		d.ord.submit(src, m, d)
	case core.MMPFlush:
		d.ord.flush(m)
	default:
		panic(fmt.Sprintf("mp: dir %v got unexpected message kind %d", d.ID, m.Kind))
	}
}

func (d *dir) commit(m core.Msg) {
	d.Eng.Schedule(d.Sys.Timing.CommitLatency(), func() {
		if m.Atomic {
			old := d.FetchAdd(memsys.Addr(m.Addr), m.Val)
			d.Sys.Net.Send(d.ID, d.Sys.CoreAt(m.Src), stats.ClassAtomicResp, proto.AckBytes+8,
				&core.Msg{Kind: core.MAtomicResp, Src: m.Src, Dir: d.Ix, Val: old, Tag: m.Tag})
			return
		}
		d.CommitValue(memsys.Addr(m.Addr), m.Val)
	})
}

// cpu is the MP processor: posts writes, never waits.
type cpu struct {
	proto.ProcBase
	// st assigns per-destination-host sequence numbers (the ordering
	// domains of core.MPProc are hosts here).
	st      core.MPProc
	nextTag uint64
	// atomicTag is the non-posted atomic whose response the core waits on;
	// 0 when none (tags start at 1).
	atomicTag uint64
	// flushes counts a barrier's unanswered flushing reads, plus one held
	// while the barrier sends them.
	flushes int
	// buf is the reusable flush fan-out scratch.
	buf []core.Msg
	// wcAddr is a one-entry write-combining buffer (posted writes to the
	// same address merge, as PCIe write-combining does).
	wcAddr  memsys.Addr
	wcValid bool

	// Stall conditions, bound once so that blocking allocates nothing.
	atomicBusy, flushing func() bool
}

func (c *cpu) handle(_ noc.NodeID, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadResp:
		c.HandleLoadResp(m)
	case core.MMPFlushOK:
		if c.flushes == 0 {
			panic("mp: unknown flush tag")
		}
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: m.Tag})
		}
		c.flushes--
		c.Recheck()
	case core.MAtomicResp:
		if m.Tag != c.atomicTag {
			panic("mp: unknown atomic tag")
		}
		c.atomicTag = 0
		c.Recheck()
	default:
		panic(fmt.Sprintf("mp: cpu %v got unexpected message kind %d", c.ID, m.Kind))
	}
}

func (c *cpu) exec(op proto.Op) {
	switch op.Kind {
	case proto.OpStoreWT, proto.OpStoreWB:
		if op.Ord == proto.Relaxed {
			if c.wcValid && c.wcAddr == op.Addr {
				c.Retire()
				return
			}
			c.wcAddr, c.wcValid = op.Addr, true
		} else {
			c.wcValid = false
		}
		class := stats.ClassRelaxedData
		if op.Ord == proto.Release {
			class = stats.ClassReleaseData
		}
		c.post(op, class, false, 0)
		c.Retire()
	case proto.OpAtomic:
		// Non-posted atomic: ordered in the per-host stream, blocks on the
		// value response.
		c.wcValid = false
		c.nextTag++
		c.atomicTag = c.nextTag
		c.Await(c.atomicBusy, stats.StallAcquire)
		c.post(op, stats.ClassAtomic, true, c.nextTag)
	case proto.OpBarrier:
		switch op.Ord {
		case proto.Release, proto.SeqCst:
			c.flushAll()
		default:
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("mp: unexpected op %v", op))
	}
}

// post sends a posted write (or a non-posted atomic) into its destination
// host's FIFO ordering domain.
func (c *cpu) post(op proto.Op, class stats.MsgClass, atomic bool, tag uint64) {
	home := c.Sys.Map.HomeOf(op.Addr)
	c.Sys.Net.Send(c.ID, home, class, proto.HeaderBytes+op.Size, &core.Msg{
		Kind: core.MMPStore, Src: c.Ix, Dir: c.Sys.Index(home), Seq: c.st.NextSeq(home.Host),
		Addr: uint64(op.Addr), Val: op.Value, Size: op.Size, Atomic: atomic, Tag: tag,
	})
}

// flushAll issues a flushing read to every host this core posted writes to
// (core.MPProc's flush fan-out, ascending host order) and stalls until all
// respond. The stall opens before the first send, so a barrier with no
// flush targets still records a (zero-length) stall.
func (c *cpu) flushAll() {
	c.flushes = 1
	c.Await(c.flushing, stats.StallRelease)
	c.buf = c.st.FlushTargets(c.Ix, c.buf[:0])
	for _, f := range c.buf {
		c.flushes++
		c.nextTag++
		f.Tag = c.nextTag
		c.Sys.Net.Send(c.ID, noc.DirID(f.Dir, 0), stats.ClassBarrier, proto.LoadReqBytes, &f)
	}
	c.flushes--
	c.Recheck()
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	cfg := sys.Net.Config()
	orderers := make([]*orderer, cfg.Hosts)
	for h := range orderers {
		orderers[h] = newOrderer(sys, h)
	}
	for _, id := range sys.Dirs() {
		d := &dir{ord: orderers[id.Host]}
		d.InitBase(sys, id)
		orderers[id.Host].dirs[sys.Index(id)] = d
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{st: core.NewMPProc(cfg.Hosts)}
		c.InitBase(sys, id, &sys.Run.Procs[i])
		c.Exec = c.exec
		c.atomicBusy = func() bool { return c.atomicTag != 0 }
		c.flushing = func() bool { return c.flushes > 0 }
		sys.Net.Register(id, c.handle)
		cpus[i] = c
	}
	return cpus
}
