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

	// Exec performs a store or barrier op and calls next() when the core may
	// proceed to the following op in program order. The protocol sets it.
	Exec func(op Op, next func())

	src        OpSource
	pending    Op
	hasPending bool
	seq        uint64
	done       bool
	nextTag    uint64
	acquires   map[uint64]func()

	// step is Step and next schedules it one issue cycle out, both bound
	// once at InitBase so issuing an op allocates neither.
	step, next func()
	// stallCond and stallResume are the core's one blocked-op slot (at most
	// one op is in flight per core): see StallWhile.
	stallCond   func() bool
	stallResume func()
}

// InitBase prepares the embedded fields.
func (p *ProcBase) InitBase(sys *System, id noc.NodeID, ps *stats.ProcStats) {
	p.Sys = sys
	p.ID = id
	p.Ix = sys.Index(id)
	p.PS = ps
	p.Eng = sys.EngOf(id.Host)
	p.Obs = sys.ObsOf(id.Host)
	p.acquires = make(map[uint64]func())
	p.step = p.Step
	p.next = func() { p.Eng.Schedule(IssueCycles, p.step) }
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
	p.pending, p.hasPending = op, true
	p.Eng.Schedule(0, p.step)
}

// Done reports whether the operation stream has retired.
func (p *ProcBase) Done() bool { return p.done }

// Step executes the next op — the one stashed by StartSource, or freshly
// pulled from the source now that the previous op has retired. The protocol's
// Exec (or the base's own handling) calls back to advance.
func (p *ProcBase) Step() {
	var op Op
	if p.hasPending {
		op, p.hasPending = p.pending, false
	} else {
		var ok bool
		op, ok = p.src.Next(p.Eng.Now())
		if !ok {
			if !p.done {
				p.done = true
				p.PS.Finished = p.Eng.Now()
			}
			return
		}
	}
	opSeq := p.seq
	p.seq++
	p.PS.Ops++
	next := p.next
	if rec := p.Obs; rec.Take() {
		// One sampling decision covers the op's whole lifecycle: issue now,
		// done when the protocol releases the core. Compute ops are a single
		// issue event carrying their (known) duration.
		issued := p.Eng.Now()
		src := p.ID.Obs()
		ev := obs.Event{At: issued, Kind: obs.KOpIssue, Src: src, Seq: opSeq,
			Addr: uint64(op.Addr), Op: uint8(op.Kind), Ord: uint8(op.Ord)}
		if op.Kind == OpCompute {
			ev.Dur = op.Cycles
		}
		rec.Record(ev)
		if op.Kind != OpCompute {
			inner := next
			next = func() {
				now := p.Eng.Now()
				rec.Record(obs.Event{At: now, Kind: obs.KOpDone, Src: src,
					Seq: opSeq, Addr: uint64(op.Addr), Dur: now - issued,
					Op: uint8(op.Kind), Ord: uint8(op.Ord)})
				inner()
			}
		}
	}
	switch op.Kind {
	case OpCompute:
		p.PS.ComputeCyc += op.Cycles
		p.Eng.Schedule(op.Cycles, p.step)
	case OpAcquire:
		p.beginAcquire(op, next)
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
		p.Exec(op, next)
	default:
		panic(fmt.Sprintf("proto: unknown op kind %v", op.Kind))
	}
}

// beginAcquire sends the poll request and blocks the core until the response
// arrives, charging the wait to StallAcquire. The flag's home directory
// answers once the flag reaches op.Value, so a logically spinning consumer
// costs one MLoadReq/MLoadResp pair on the wire (the spin itself hits the
// consumer's local cached copy and is not simulated message-by-message).
func (p *ProcBase) beginAcquire(op Op, next func()) {
	start := p.Eng.Now()
	tag := p.nextTag
	p.nextTag++
	p.acquires[tag] = func() {
		d := p.Eng.Now() - start
		p.PS.AddStall(stats.StallAcquire, d)
		p.Obs.AddStall(stats.StallAcquire, d)
		next()
	}
	home := p.Sys.Map.HomeOf(op.Addr)
	p.Sys.Net.Send(p.ID, home, stats.ClassLoadReq, LoadReqBytes,
		&core.Msg{Kind: core.MLoadReq, Src: p.Ix, Dir: p.Sys.Index(home),
			Addr: uint64(op.Addr), Val: op.Value, Tag: tag})
}

// HandleLoadResp resumes the acquire waiting on the response's tag. Protocol
// core handlers route MLoadResp messages here.
func (p *ProcBase) HandleLoadResp(m *core.Msg) {
	cont, ok := p.acquires[m.Tag]
	if !ok {
		panic(fmt.Sprintf("proto: %v got MLoadResp with unknown tag %d", p.ID, m.Tag))
	}
	delete(p.acquires, m.Tag)
	cont()
}

// StallUntil charges kind for the duration between now and the moment
// release() is invoked; it returns the function to call when the stall ends.
// When tracing is on, the stall is bracketed by KStallBegin/KStallEnd events
// under one sampling decision.
func (p *ProcBase) StallUntil(kind stats.StallKind, resume func()) func() {
	start := p.Eng.Now()
	rec := p.Obs
	traced := rec.Take()
	if traced {
		rec.Record(obs.Event{At: start, Kind: obs.KStallBegin,
			Src: p.ID.Obs(), Seq: uint64(kind)})
	}
	return func() {
		d := p.Eng.Now() - start
		p.PS.AddStall(kind, d)
		rec.AddStall(kind, d)
		if traced {
			rec.Record(obs.Event{At: p.Eng.Now(), Kind: obs.KStallEnd,
				Src: p.ID.Obs(), Seq: uint64(kind), Dur: d})
		}
		resume()
	}
}

// StallWhile blocks the core while cond holds, charging the stall to kind
// (see StallUntil), then runs resume. If cond is already false, resume runs
// at once and nothing is charged. A core holds at most one blocked op:
// handlers call Recheck after every state change that may end the stall.
func (p *ProcBase) StallWhile(cond func() bool, kind stats.StallKind, resume func()) {
	if !cond() {
		resume()
		return
	}
	if p.stallCond != nil {
		panic(fmt.Sprintf("proto: core %v blocked twice", p.ID))
	}
	p.stallCond = cond
	p.stallResume = p.StallUntil(kind, resume)
}

// Recheck resumes the blocked op if its StallWhile condition no longer
// holds. It is a no-op when no op is blocked.
func (p *ProcBase) Recheck() {
	if p.stallCond == nil || p.stallCond() {
		return
	}
	resume := p.stallResume
	p.stallCond, p.stallResume = nil, nil
	resume()
}

// Now is shorthand for the engine clock.
func (p *ProcBase) Now() sim.Time { return p.Eng.Now() }
