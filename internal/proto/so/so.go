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
		c := &cpu{cfg: p.Cfg}
		c.InitBase(sys, id, &sys.Run.Procs[i])
		c.Exec = c.exec
		c.undrained = func() bool { return !c.st.CanIssueOrdered() }
		c.atomicBusy = func() bool { return c.atomicTag != 0 }
		c.bufFull = func() bool { return len(c.buf) >= c.cfg.StoreBufCap }
		c.tsoBusy = func() bool { return len(c.buf) > 0 || !c.st.Drained() }
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
	// atomicTag is the far atomic whose response the core waits on; 0 when
	// none (tags start at 1).
	atomicTag uint64
	// relTag and relAt are the in-flight non-atomic Release store (0 when
	// none: a Release waits for every prior ack, so at most one is in
	// flight) and its send time, for the release-latency distribution.
	relTag uint64
	relAt  sim.Time
	// wcAddr implements a one-entry write-combining buffer: consecutive
	// Relaxed stores to the same address merge into one wire transaction.
	wcAddr  memsys.Addr
	wcValid bool

	// TSO store buffer: stores queued for serial, in-order drain.
	buf      []proto.Op
	draining bool

	// Stall conditions, bound once so that blocking allocates nothing.
	undrained, atomicBusy, bufFull, tsoBusy func() bool
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

func (c *cpu) exec(op proto.Op) {
	if c.Sys.Mode == proto.TSO {
		c.execTSO(op)
		return
	}
	switch op.Kind {
	case proto.OpStoreWT, proto.OpStoreWB:
		// Under SO, write-back stores in a write-through workload are issued
		// through the same ordered path.
		if op.Ord == proto.Release {
			c.wcValid = false
			if c.drained() {
				c.send(op, true, false)
				c.Retire()
			}
			return
		}
		if c.wcValid && c.wcAddr == op.Addr {
			// Write-combined: the in-flight transaction absorbs the store.
			c.Retire()
			return
		}
		c.wcAddr, c.wcValid = op.Addr, true
		c.send(op, false, false)
		c.Retire()
	case proto.OpAtomic:
		// Far atomics are source-ordered like stores; the core additionally
		// blocks on the value response (a true data dependency).
		if (op.Ord == proto.Release || op.Ord == proto.SeqCst) && !c.drained() {
			return
		}
		c.issueAtomic(op)
	case proto.OpBarrier:
		switch op.Ord {
		case proto.Release, proto.SeqCst:
			// A release barrier completes when all prior write-through
			// stores are acknowledged.
			c.Await(c.undrained, stats.StallAckWait)
		default: // Acquire barriers need no store-side handling (§4.4).
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("so: unexpected op %v", op))
	}
}

// drained reports whether every store is acknowledged (core.SOProc's
// ordering rule); if not, the op is retried once it is.
func (c *cpu) drained() bool {
	if c.st.CanIssueOrdered() {
		return true
	}
	c.Retry(c.undrained, stats.StallAckWait)
	return false
}

// issueAtomic sends a far atomic and blocks the core on its response.
func (c *cpu) issueAtomic(op proto.Op) {
	c.send(op, op.Ord == proto.Release, true)
	c.atomicTag = c.nextTag
	c.Await(c.atomicBusy, stats.StallAcquire)
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
		c.relTag, c.relAt = c.nextTag, c.Now()
	}
	home := c.Sys.Map.HomeOf(op.Addr)
	c.Sys.Net.Send(c.ID, home, class, proto.HeaderBytes+op.Size, &core.Msg{
		Kind: core.MSOStore, Src: c.Ix, Dir: c.Sys.Index(home), Addr: uint64(op.Addr),
		Val: op.Value, Size: op.Size, Release: release, Atomic: atomic, Tag: c.nextTag,
	})
}

func (c *cpu) onAck(m *core.Msg) {
	c.st.NoteAck()
	if m.Tag == c.relTag {
		lat := c.Now() - c.relAt
		c.PS.ReleaseLatency.Add(lat)
		c.relTag = 0
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: m.Tag, Dur: lat})
		}
	}
	if m.Tag == c.atomicTag {
		c.atomicTag = 0
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
		c.issueAtomic(op)
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
	c.send(op, op.Ord == proto.Release, false)
	c.Recheck() // buffer space freed
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
