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
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{cfg: p.Cfg, atomicWait: make(map[uint64]func()), relSent: make(map[uint64]sim.Time)}
		c.InitBase(sys, id, &sys.Run.Procs[i])
		c.Exec = c.exec
		sys.Net.Register(id, c.handle)
		cpus[i] = c
	}
	return cpus
}

// cpu is the source-ordering processor adapter: the ordering decisions
// (when a release, barrier, or ordered atomic may issue) are core.SOProc
// rules shared with the litmus model checker; this type owns timing, NoC
// injection, stats, and obs events plus the TSO store-buffer
// micro-architecture. Stores travel as core.MSOStore, acks as core.MSOAck
// (an atomic's ack doubles as its value response).
type cpu struct {
	proto.ProcBase
	cfg Config

	st      core.SOProc // outstanding write-through stores (RC mode)
	nextTag uint64      // store tags for ack matching
	// atomicWait is the continuation blocked on an atomic's response.
	atomicWait map[uint64]func()
	// relSent records Release store send times by tag.
	relSent map[uint64]sim.Time
	// wcAddr implements a one-entry write-combining buffer: consecutive
	// Relaxed stores to the same address merge into one wire transaction.
	wcAddr  memsys.Addr
	wcValid bool

	// TSO store buffer: stores queued for serial, in-order drain.
	buf      []bufEntry
	draining bool
}

type bufEntry struct {
	op proto.Op
}

func (c *cpu) handle(_ noc.NodeID, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadResp:
		c.HandleLoadResp(m)
	case core.MSOAck:
		c.onAck(m)
	default:
		panic(fmt.Sprintf("so: cpu %v got unexpected message kind %d", c.ID, m.Kind))
	}
}

func (c *cpu) exec(op proto.Op, next func()) {
	if c.Sys.Mode == proto.TSO {
		c.execTSO(op, next)
		return
	}
	switch op.Kind {
	case proto.OpStoreWT, proto.OpStoreWB:
		// Under SO, write-back stores in a write-through workload are issued
		// through the same ordered path.
		if op.Ord == proto.Release {
			c.wcValid = false
			c.whenDrained(stats.StallAckWait, func() {
				c.send(op, true, false)
				next()
			})
			return
		}
		if c.wcValid && c.wcAddr == op.Addr {
			// Write-combined: the in-flight transaction absorbs the store.
			next()
			return
		}
		c.wcAddr, c.wcValid = op.Addr, true
		c.send(op, false, false)
		next()
	case proto.OpAtomic:
		// Far atomics are source-ordered like stores; the core additionally
		// blocks on the value response (a true data dependency).
		issue := func() {
			c.send(op, op.Ord == proto.Release, true)
			c.atomicWait[c.nextTag] = c.StallUntil(stats.StallAcquire, next)
		}
		if op.Ord == proto.Release || op.Ord == proto.SeqCst {
			c.whenDrained(stats.StallAckWait, issue)
			return
		}
		issue()
	case proto.OpBarrier:
		switch op.Ord {
		case proto.Release, proto.SeqCst:
			// A release barrier completes when all prior write-through
			// stores are acknowledged.
			c.whenDrained(stats.StallAckWait, next)
		default: // Acquire barriers need no store-side handling (§4.4).
			next()
		}
	default:
		panic(fmt.Sprintf("so: unexpected op %v", op))
	}
}

// whenDrained runs fn once all stores are acknowledged (core.SOProc's
// ordering rule), charging any wait to the given stall kind.
func (c *cpu) whenDrained(kind stats.StallKind, fn func()) {
	if c.st.CanIssueOrdered() {
		fn()
		return
	}
	c.StallWhile(func() bool { return !c.st.CanIssueOrdered() }, kind, fn)
}

// send puts a store (or far atomic) on the wire under a fresh ack tag.
func (c *cpu) send(op proto.Op, release, atomic bool) {
	c.nextTag++
	c.st.NoteStore()
	class := stats.ClassRelaxedData
	switch {
	case atomic:
		class = stats.ClassAtomic
	case release:
		class = stats.ClassReleaseData
		c.relSent[c.nextTag] = c.Now()
	}
	home := c.Sys.Map.HomeOf(op.Addr)
	c.Sys.Net.Send(c.ID, home, class, proto.HeaderBytes+op.Size, &core.Msg{
		Kind: core.MSOStore, Src: c.Ix, Dir: c.Sys.Index(home), Addr: uint64(op.Addr),
		Val: op.Value, Size: op.Size, Release: release, Atomic: atomic, Tag: c.nextTag,
	})
}

func (c *cpu) onAck(m *core.Msg) {
	c.st.NoteAck()
	if at, ok := c.relSent[m.Tag]; ok {
		lat := c.Now() - at
		c.PS.ReleaseLatency.Add(lat)
		delete(c.relSent, m.Tag)
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: m.Tag, Dur: lat})
		}
	}
	if cont, ok := c.atomicWait[m.Tag]; ok {
		delete(c.atomicWait, m.Tag)
		cont()
	}
	c.Recheck()
	if c.Sys.Mode == proto.TSO {
		c.drainNext()
	}
}

// --- TSO mode -----------------------------------------------------------

func (c *cpu) execTSO(op proto.Op, next func()) {
	switch op.Kind {
	case proto.OpAtomic:
		// TSO atomics drain the store buffer, execute, and block.
		c.whenEmptyTSO(func() {
			c.send(op, op.Ord == proto.Release, true)
			c.atomicWait[c.nextTag] = c.StallUntil(stats.StallAcquire, next)
		})
	case proto.OpStoreWT, proto.OpStoreWB:
		if len(c.buf) >= c.cfg.StoreBufCap {
			c.StallWhile(func() bool { return len(c.buf) >= c.cfg.StoreBufCap },
				stats.StallStoreBuf, func() {
					c.enqueue(op)
					next()
				})
			return
		}
		c.enqueue(op)
		next()
	case proto.OpBarrier:
		// Any barrier under TSO drains the store buffer.
		c.whenEmptyTSO(next)
	default:
		panic(fmt.Sprintf("so: unexpected op %v", op))
	}
}

func (c *cpu) enqueue(op proto.Op) {
	c.buf = append(c.buf, bufEntry{op: op})
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
	e := c.buf[0]
	c.buf = c.buf[1:]
	c.send(e.op, e.op.Ord == proto.Release, false)
	c.Recheck() // buffer space freed
}

func (c *cpu) whenEmptyTSO(fn func()) {
	if len(c.buf) == 0 && c.st.Drained() {
		fn()
		return
	}
	c.StallWhile(func() bool { return len(c.buf) > 0 || !c.st.Drained() },
		stats.StallAckWait, fn)
}

// dir is the source-ordering directory: commit, then acknowledge.
type dir struct {
	proto.DirBase
}

func (d *dir) handle(src noc.NodeID, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadReq:
		d.HandleLoadReq(src, m)
	case core.MSOStore:
		d.Eng.Schedule(d.Sys.Timing.CommitLatency(), func() {
			var old uint64
			class := stats.ClassAck
			size := proto.AckBytes
			if m.Atomic {
				old = d.FetchAdd(memsys.Addr(m.Addr), m.Val)
				class = stats.ClassAtomicResp
				size = proto.AckBytes + 8
			} else {
				d.CommitValue(memsys.Addr(m.Addr), m.Val)
			}
			if m.Release {
				if rec := d.Obs; rec.Take() {
					rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRelCommit,
						Src: d.ID.Obs(), Dst: src.Obs(), Seq: m.Tag, Addr: m.Addr})
				}
			}
			ack := core.SOAck(*m, old)
			d.Sys.Net.Send(d.ID, src, class, size, &ack)
		})
	default:
		panic(fmt.Sprintf("so: dir %v got unexpected message kind %d", d.ID, m.Kind))
	}
}
