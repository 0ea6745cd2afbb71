// Package so implements the source-ordering write-through coherence protocol
// — the de facto baseline the paper argues against (§3.1). Every
// write-through store is acknowledged by its home directory, and the source
// processor enforces release consistency by stalling each Release until all
// prior write-through stores have been acknowledged (AMBA CHI's Ordered
// Write Observation; CXL.io's UIO write completion).
//
// Under TSO (§6), all stores must be totally ordered, so the FIFO store
// buffer drains serially: a store is transmitted only after its predecessor
// has been acknowledged.
package so

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

// Config tunes the protocol.
type Config struct {
	// StoreBufCap bounds the TSO store buffer; issue stalls when full.
	StoreBufCap int
}

// DefaultConfig matches the simulated processor (64-entry store buffer).
func DefaultConfig() Config { return Config{StoreBufCap: 64} }

// Protocol is a proto.Builder for source ordering.
type Protocol struct {
	Cfg Config
}

// New returns a source-ordering protocol with the default configuration.
func New() *Protocol { return &Protocol{Cfg: DefaultConfig()} }

// Name implements proto.Builder.
func (p *Protocol) Name() string { return "SO" }

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	for _, id := range sys.Dirs() {
		d := &dir{}
		d.InitBase(sys, id)
		d.Commit = d.commitStore
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{cfg: p.Cfg}
		c.InitBase(sys, id, &sys.Run.Procs[i])
		c.Exec = c.exec
		c.Waiting = func() bool { return c.st.Blocked(c.Wait) }
		c.OnReply = c.onAck
		c.bufFull = func() bool { return len(c.buf) >= c.cfg.StoreBufCap }
		c.tsoBusy = func() bool { return len(c.buf) > 0 || !c.st.Drained() }
		sys.Net.Register(id, c.Handle)
		cpus[i] = c
	}
	return cpus
}

// cpu is the source-ordering processor adapter: what an op issues and waits
// on is core.SOProc's Issue rule, shared with the litmus model checker; this
// type owns timing, NoC injection, stats, and obs events plus the TSO
// store-buffer micro-architecture. Stores travel as core.MSOStore, acks as
// core.MSOAck (an atomic's ack doubles as its value response).
type cpu struct {
	proto.ProcBase
	cfg Config

	st      core.SOProc // outstanding write-through stores (RC mode)
	nextTag uint64      // store tags for ack matching
	// relTag and relAt are the in-flight non-atomic Release store (0 when
	// none: a Release waits for every prior ack, so at most one is in
	// flight) and its send time, for the release-latency distribution.
	relTag uint64
	relAt  sim.Time

	// TSO store buffer: stores queued for serial, in-order drain.
	buf      []proto.Op
	draining bool

	// Stall conditions, bound once so that blocking allocates nothing.
	bufFull, tsoBusy func() bool
}

func (c *cpu) exec(op proto.Op) {
	if c.Sys.Mode == proto.TSO {
		c.execTSO(op)
		return
	}
	c.issue(op)
}

// issue runs op through the core Issue rule (write-back stores in a
// write-through workload take the same path) and sends what it emits before
// the op retires or stalls.
func (c *cpu) issue(op proto.Op) {
	var buf [1]core.Msg // Issue emits at most one message
	cop := c.CoreOp(op)
	out, w := c.st.Issue(&cop, buf[:0])
	for i := range out {
		c.send(&out[i])
	}
	c.Finish(w)
}

// send puts a store (or far atomic) on the wire under a fresh ack tag.
func (c *cpu) send(m *core.Msg) {
	c.nextTag++
	m.Tag = c.nextTag
	class := stats.ClassRelaxedData
	switch {
	case m.Atomic:
		class = stats.ClassAtomic
	case m.Release:
		class = stats.ClassReleaseData
		c.relTag, c.relAt = c.nextTag, c.Now()
	}
	c.Sys.Net.Send(c.ID, c.Sys.DirAt(m.Dir), class, proto.HeaderBytes+m.Size, c.Sys.NewMsg(*m))
}

func (c *cpu) onAck(m *core.Msg) {
	c.st.Receive(m)
	if m.Tag == c.relTag {
		lat := c.Now() - c.relAt
		c.PS.ReleaseLatency.Add(lat)
		c.relTag = 0
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: m.Tag, Dur: lat})
		}
	}
	c.Recheck()
	if c.Sys.Mode == proto.TSO {
		c.drainNext()
	}
}

// --- TSO mode -----------------------------------------------------------

func (c *cpu) execTSO(op proto.Op) {
	switch op.Kind {
	case proto.OpAtomic:
		// TSO atomics drain the store buffer, execute, and block.
		if c.tsoBusy() {
			c.Retry(c.tsoBusy, stats.StallAckWait)
			return
		}
		c.issue(op)
	case proto.OpStoreWT, proto.OpStoreWB:
		if len(c.buf) >= c.cfg.StoreBufCap {
			c.Retry(c.bufFull, stats.StallStoreBuf)
			return
		}
		c.enqueue(op)
		c.Retire()
	case proto.OpBarrier:
		// Any barrier under TSO drains the store buffer.
		c.Await(c.tsoBusy, stats.StallAckWait)
	default:
		panic(fmt.Sprintf("so: unexpected op %v", op))
	}
}

func (c *cpu) enqueue(op proto.Op) {
	c.buf = append(c.buf, op)
	if !c.draining {
		c.drainNext()
	}
}

// drainNext transmits the store-buffer head; the next entry goes out only
// after the head's ack returns (serial source ordering of all stores).
func (c *cpu) drainNext() {
	if len(c.buf) == 0 {
		c.draining = false
		c.Recheck()
		return
	}
	c.draining = true
	op := c.buf[0]
	c.buf = c.buf[1:]
	var buf [1]core.Msg
	cop := c.CoreOp(op)
	c.send(&c.st.Store(&cop, buf[:0])[0])
	c.Recheck() // buffer space freed
}

// dir is the source-ordering directory: commit, then acknowledge.
type dir struct {
	proto.DirBase
}

func (d *dir) handle(_ noc.NodeID, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadReq:
		d.HandleLoadReq(m)
	case core.MSOStore:
		d.Later(d.Sys.Timing.CommitLatency(), m)
	default:
		panic(fmt.Sprintf("so: dir %v got unexpected message kind %d", d.ID, m.Kind))
	}
}

// commitStore commits a store one commit latency after it arrived and
// rewrites it into its acknowledgment.
func (d *dir) commitStore(m *core.Msg) {
	var old uint64
	class, size := stats.ClassAck, proto.AckBytes
	if m.Atomic {
		old = d.FetchAdd(memsys.Addr(m.Addr), m.Val)
		class, size = stats.ClassAtomicResp, proto.AckBytes+8
	} else {
		d.CommitValue(memsys.Addr(m.Addr), m.Val)
	}
	src := d.Sys.CoreAt(m.Src)
	if m.Release {
		if rec := d.Obs; rec.Take() {
			rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRelCommit,
				Src: d.ID.Obs(), Dst: src.Obs(), Seq: m.Tag, Addr: m.Addr})
		}
	}
	core.SOAck(m, old)
	d.Sys.Net.Send(d.ID, src, class, size, m)
}
