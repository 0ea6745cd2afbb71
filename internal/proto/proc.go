package proto

import (
	"fmt"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// IssueCycles is the minimum core occupancy per memory operation: the store
// pipeline issues at most one operation per cycle.
const IssueCycles = 1

// ProcBase sequences a core's operation stream: it executes Compute and
// Acquire ops itself and delegates stores and barriers to the owning protocol
// through Exec. Ops are pulled one at a time from an OpSource — a static
// Program is just the trivial source — so the stream may be produced
// reactively, at simulated time, by a workload that decides each op only once
// the previous one retired. Protocol processor types embed it.
//
// ProcBase owns the op in execution, and the protocol finishes it with
// Retire, Retry or Await. A blocked op is plain state (a condition and a
// stall kind), never a continuation: handlers update the state the
// condition reads and call Recheck.
type ProcBase struct {
	Sys *System
	ID  noc.NodeID
	// Ix is the core's dense index (System.Index), its identity in core.Msg.
	Ix int
	PS *stats.ProcStats
	// Eng and Obs are the core's host-shard engine and recorder, cached at
	// InitBase so the hot path never routes through Sys (which in a
	// partitioned system would alias another shard's clock).
	Eng *sim.Engine
	Obs *obs.Recorder

	// Exec starts a store, atomic or barrier op; the protocol sets it.
	Exec func(op Op)

	src  OpSource
	seq  uint64
	done bool
	step func() // Step, bound once so issuing an op allocates nothing

	// op is the op in execution (or, if hasPending, the one StartSource
	// pulled). If traced, Retire records its KOpDone.
	op         Op
	hasPending bool
	traced     bool
	issued     sim.Time

	// acquiring is set while the acquire poll tagged acqTag (the count of
	// answered polls) is outstanding; polling reads it.
	acqTag    uint64
	acquiring bool
	polling   func() bool

	// The core's one blocked-op slot (see Retry and Await).
	stallCond   func() bool
	stallKind   stats.StallKind
	stallStart  sim.Time
	stallTraced bool
	stallRetry  bool
}

// InitBase prepares the embedded fields.
func (p *ProcBase) InitBase(sys *System, id noc.NodeID, ps *stats.ProcStats) {
	p.Sys = sys
	p.ID = id
	p.Ix = sys.Index(id)
	p.PS = ps
	p.Eng = sys.EngOf(id.Host)
	p.Obs = sys.ObsOf(id.Host)
	p.step = p.Step
	p.polling = func() bool { return p.acquiring }
}

// Start begins executing a static program (the trivial OpSource).
func (p *ProcBase) Start(prog Program) { p.StartSource(prog.Source()) }

// StartSource begins pulling and executing ops from src. The first op is
// pulled eagerly: an immediately-exhausted source retires the core without
// scheduling any engine event, exactly as an empty Program always has.
func (p *ProcBase) StartSource(src OpSource) {
	p.src = src
	p.seq = 0
	p.hasPending = false
	p.done = false
	if a, ok := src.(CoreAttachable); ok {
		a.AttachCore(p.ID, p.Eng, p.Obs)
	}
	op, ok := src.Next(p.Eng.Now())
	if !ok {
		p.done = true
		p.PS.Finished = p.Eng.Now()
		return
	}
	p.op, p.hasPending = op, true
	p.Eng.Schedule(0, p.step)
}

// Done reports whether the operation stream has retired.
func (p *ProcBase) Done() bool { return p.done }

// Step executes the next op — the one stashed by StartSource, or freshly
// pulled from the source now that the previous op has retired.
func (p *ProcBase) Step() {
	if p.hasPending {
		p.hasPending = false
	} else {
		op, ok := p.src.Next(p.Eng.Now())
		if !ok {
			if !p.done {
				p.done = true
				p.PS.Finished = p.Eng.Now()
			}
			return
		}
		p.op = op
	}
	op := p.op
	p.seq++
	p.PS.Ops++
	p.traced = p.Obs.Take()
	if p.traced {
		// One sampling decision covers the op's whole lifecycle: issue now,
		// done when the protocol retires it. Compute ops are a single issue
		// event carrying their (known) duration.
		p.issued = p.Eng.Now()
		ev := obs.Event{At: p.issued, Kind: obs.KOpIssue, Src: p.ID.Obs(), Seq: p.seq - 1,
			Addr: uint64(op.Addr), Op: uint8(op.Kind), Ord: uint8(op.Ord)}
		if op.Kind == OpCompute {
			ev.Dur = op.Cycles
		}
		p.Obs.Record(ev)
	}
	switch op.Kind {
	case OpCompute:
		p.PS.ComputeCyc += op.Cycles
		p.Eng.Schedule(op.Cycles, p.step)
	case OpAcquire:
		p.beginAcquire(op)
	case OpStoreWT, OpStoreWB, OpBarrier, OpAtomic:
		if op.Kind == OpStoreWT || op.Kind == OpStoreWB || op.Kind == OpAtomic {
			if op.Ord == Release {
				p.PS.Releases++
			} else {
				p.PS.Relaxed++
			}
		}
		if p.Exec == nil {
			panic("proto: ProcBase.Exec not set by protocol")
		}
		p.Exec(op)
	default:
		panic(fmt.Sprintf("proto: unknown op kind %v", op.Kind))
	}
}

// Retire finishes the op in execution: the core issues the next op one
// issue cycle from now.
func (p *ProcBase) Retire() {
	if p.traced {
		now := p.Eng.Now()
		p.Obs.Record(obs.Event{At: now, Kind: obs.KOpDone, Src: p.ID.Obs(),
			Seq: p.seq - 1, Addr: uint64(p.op.Addr), Dur: now - p.issued,
			Op: uint8(p.op.Kind), Ord: uint8(p.op.Ord)})
	}
	p.Eng.Schedule(IssueCycles, p.step)
}

// Retry blocks the core while cond holds, charging the stall to kind, then
// runs Exec again on the same op (at once, uncharged, if cond is false).
func (p *ProcBase) Retry(cond func() bool, kind stats.StallKind) { p.stall(cond, kind, true, true) }

// Await blocks the core while cond holds, charging the stall to kind, then
// retires the op (at once, uncharged, if cond is false).
func (p *ProcBase) Await(cond func() bool, kind stats.StallKind) { p.stall(cond, kind, false, true) }

// stall fills the core's one blocked-op slot, unless cond is already false.
// A traced stall is bracketed by KStallBegin/KStallEnd events under one
// sampling decision.
func (p *ProcBase) stall(cond func() bool, kind stats.StallKind, retry, traced bool) {
	if !cond() {
		p.finish(retry)
		return
	}
	if p.stallCond != nil {
		panic(fmt.Sprintf("proto: core %v blocked twice", p.ID))
	}
	p.stallCond, p.stallKind, p.stallRetry = cond, kind, retry
	p.stallStart = p.Eng.Now()
	p.stallTraced = traced && p.Obs.Take()
	if p.stallTraced {
		p.Obs.Record(obs.Event{At: p.stallStart, Kind: obs.KStallBegin,
			Src: p.ID.Obs(), Seq: uint64(kind)})
	}
}

// Recheck ends the stall if its condition no longer holds, then retries or
// retires the blocked op. Handlers call it after every state change that may
// end a stall.
func (p *ProcBase) Recheck() {
	if p.stallCond == nil || p.stallCond() {
		return
	}
	p.stallCond = nil
	kind := p.stallKind
	d := p.Eng.Now() - p.stallStart
	p.PS.AddStall(kind, d)
	p.Obs.AddStall(kind, d)
	if p.stallTraced {
		p.Obs.Record(obs.Event{At: p.Eng.Now(), Kind: obs.KStallEnd,
			Src: p.ID.Obs(), Seq: uint64(kind), Dur: d})
	}
	p.finish(p.stallRetry)
}

// finish retries or retires the op in execution.
func (p *ProcBase) finish(retry bool) {
	if retry {
		p.Exec(p.op)
	} else {
		p.Retire()
	}
}

// beginAcquire sends the poll request and blocks the core until the response
// arrives, charging the wait to StallAcquire (untraced). The flag's home
// directory answers once the flag reaches op.Value, so a logically spinning
// consumer costs one MLoadReq/MLoadResp pair on the wire (the spin itself
// hits the consumer's local cached copy and is not simulated
// message-by-message).
func (p *ProcBase) beginAcquire(op Op) {
	p.acquiring = true
	p.stall(p.polling, stats.StallAcquire, false, false)
	home := p.Sys.Map.HomeOf(op.Addr)
	p.Sys.Net.Send(p.ID, home, stats.ClassLoadReq, LoadReqBytes,
		&core.Msg{Kind: core.MLoadReq, Src: p.Ix, Dir: p.Sys.Index(home),
			Addr: uint64(op.Addr), Val: op.Value, Tag: p.acqTag})
}

// HandleLoadResp ends the acquire waiting on the response. Protocol
// handlers route MLoadResp messages here.
func (p *ProcBase) HandleLoadResp(m *core.Msg) {
	if !p.acquiring || m.Tag != p.acqTag {
		panic(fmt.Sprintf("proto: %v got MLoadResp with unknown tag %d", p.ID, m.Tag))
	}
	p.acquiring = false
	p.acqTag++
	p.Recheck()
}

// Now is shorthand for the engine clock.
func (p *ProcBase) Now() sim.Time { return p.Eng.Now() }
