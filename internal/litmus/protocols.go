package litmus

import (
	"fmt"

	"cord/internal/proto/core"
)

// This file is the model checker's *driver*: it decides which transition to
// attempt and applies memory-cell effects, but every protocol decision —
// admission, eligibility, fan-out, table bookkeeping — is delegated to the
// rules in internal/proto/core, the same rules the simulator adapters run.

// home returns the directory owning an address under the test's placement.
func (c *checker) home(a Addr) int { return c.t.Home[a] }

// stepKind classifies a processor step for the partial-order reduction
// (por.go): whether firing it eagerly, without exploring its interleavings
// against other transitions, is sound.
type stepKind uint8

const (
	// stepUnsafe steps mutate property-visible state (a CORD release,
	// barrier or overflow flush advances Ep and grows Unacked — the fields
	// the epoch-window invariant reads) and must interleave fully.
	stepUnsafe stepKind = iota
	// stepSafe steps touch only the issuing processor's private state and
	// append messages to the network: they commute with every transition of
	// every other component and are never disabled once enabled.
	stepSafe
	// stepLoad is a load: safe exactly when its address is write-cold (no
	// in-flight, buffered or still-to-be-issued writer), because then the
	// value read is the same on every interleaving.
	stepLoad
)

// stepProc attempts to execute processor p's next action and returns the
// successor state, or nil if p is done or blocked (stalled on protocol
// conditions — it unblocks via a future delivery transition).
func (c *checker) stepProc(w *world, p int) *world {
	s, _ := c.stepProcKind(w, p, &probe{})
	return s
}

// probe is a worker's scratch processor: stepProcKind runs an Issue rule on
// a copy of the stepping processor first, so a refusal costs no world, and
// a step that proceeds copies it into its successor.
type probe struct {
	ps  procState
	out []core.Msg
}

// stepProcKind is stepProc plus the step's reduction class. Loads are the
// driver's; every other op goes through the processor's protocol Issue rule.
func (c *checker) stepProcKind(w *world, p int, pr *probe) (*world, stepKind) {
	ps := &w.procs[p]
	if ps.pc >= len(c.t.Progs[p]) || waiting(ps) {
		return nil, stepUnsafe
	}
	op := c.t.Progs[p][ps.pc]
	if op.Kind == OpLd {
		// Loads read the home directory's committed value. Modeling the
		// read as atomic-at-home matches non-caching write-through
		// consumers; acquire ordering is enforced by in-order issue.
		s := w.clone()
		s.procs[p].regs[op.Reg] = s.dirs[c.home(op.Addr)].mem[op.Addr]
		s.procs[p].pc++
		return s, stepLoad
	}
	ps.copyTo(&pr.ps)
	cop := c.coreOp(p, op)
	out, wt := c.issue(&pr.ps, &cop, pr.out[:0])
	pr.out = out
	if wt.Verdict == core.Refuse {
		return nil, stepUnsafe
	}
	s := w.clone()
	sp := &s.procs[p]
	pr.ps.copyTo(sp)
	s.net = append(s.net, out...)
	if wt.Verdict != core.Retry {
		sp.pc++
	}
	if len(sp.cord.Unacked) > len(ps.cord.Unacked) &&
		(len(ps.cord.Unacked) > 0 || c.windowViolated(s)) {
		// A CORD release, barrier, drain or overflow flush advances Ep and
		// grows Unacked — the epoch-window observables — and its ReqNotify
		// fan-out reads ByDir, so it conflicts with p's in-flight MAcks. At
		// the head of a chain (no unacked epoch before it) no MAck for p is
		// in flight to race the guard or the fan-out, and the window
		// distance is at most one, so the predicate cannot flip unless it
		// already reads true (checked on the successor, belt and braces):
		// only then is the issue safe.
		return s, stepUnsafe
	}
	// Every other issue touches only p's private state and appends messages:
	// its guard only ever clears under other components' transitions (acks
	// drain counters, fills free MSHRs), so it cannot be disabled.
	return s, stepSafe
}

// coreOp translates processor p's litmus op for its protocol's Issue rule.
// A barrier is always a release barrier; an atomic's request carries the
// register its old value returns to.
func (c *checker) coreOp(p int, op Op) core.Op {
	d := c.home(op.Addr)
	o := core.Op{Release: op.Ord == Rel, Src: p, Dir: d, Domain: d,
		Addr: uint64(op.Addr), Line: uint64(op.Addr), Val: uint64(op.Val)}
	switch op.Kind {
	case OpAt:
		o.Kind, o.Tag = core.OpAtomic, uint64(op.Reg)
	case OpBar:
		o.Kind, o.Release = core.OpBarrier, true
	}
	return o
}

// issue runs the processor's protocol Issue rule on ps. A WB write-back
// puts one MWBData per dirty word on the wire (each model address is its
// own line).
func (c *checker) issue(ps *procState, op *core.Op, buf []core.Msg) ([]core.Msg, core.Wait) {
	switch ps.proto {
	case CORDP:
		return ps.cord.Issue(c.cp, op, buf)
	case SOP:
		return ps.so.Issue(op, buf)
	case MPP:
		return ps.mp.Issue(op, buf)
	case WBP:
		return ps.wb.Issue(c.cfg.wbMSHRs(), op, buf, func(buf []core.Msg, l *core.WBLine) []core.Msg {
			l.Each(func(a, v uint64) {
				buf = append(buf, core.Msg{Kind: core.MWBData, Src: op.Src, Dir: c.home(Addr(a)), Addr: a, Val: v})
			})
			return buf
		})
	}
	panic(fmt.Sprintf("litmus: processor %d runs unknown protocol", op.Src))
}

// waiting reports whether an issued wait holds the processor.
func waiting(ps *procState) bool {
	switch ps.proto {
	case CORDP:
		return ps.cord.Waiting()
	case SOP:
		return ps.so.AtomWait
	case MPP:
		return ps.mp.AtomWait
	}
	return ps.wb.AtomWait
}

// receive applies a reply to processor m.Src through its protocol's Receive
// rule, then writes a returned atomic value to the register Tag names.
func (c *checker) receive(s *world, m core.Msg) {
	ps := &s.procs[m.Src]
	switch ps.proto {
	case CORDP:
		ps.cord.Receive(&m)
	case SOP:
		ps.so.Receive(&m)
	case MPP:
		ps.mp.Receive(&m)
	case WBP:
		ps.wb.Receive(&m)
	}
	if core.ReturnsValue(m) {
		ps.regs[m.Tag] = int(m.Val)
	}
}

// --- deliveries ---

// deliver applies one in-flight message to the world (the message is
// already removed from s.net).
func (c *checker) deliver(s *world, m core.Msg) {
	switch m.Kind {
	case core.MRelaxed:
		c.commitAtomic(s, m)
		s.dirs[m.Dir].cord.NoteRelaxed(m.Src, m.Ep)
		c.reeval(s, m.Dir)
	case core.MRelease:
		if s.dirs[m.Dir].cord.ReleaseEligible(m) {
			c.commitRelease(s, m.Dir, m)
			c.reeval(s, m.Dir)
		} else {
			s.dirs[m.Dir].cord.BufferRelease(m)
		}
	case core.MReqNotify:
		if s.dirs[m.Dir].cord.ReqEligible(m) {
			c.serveNotify(s, m.Dir, m)
		} else {
			s.dirs[m.Dir].cord.BufferReq(m)
		}
	case core.MNotify:
		s.dirs[m.Dir].cord.NoteNotify(m.Src, m.Ep)
		c.reeval(s, m.Dir)
	case core.MAck, core.MAtomicResp, core.MSOAck, core.MMPFlushOK, core.MWBFill, core.MWBAck:
		c.receive(s, m)
	case core.MSOStore:
		core.SOAck(&m, commit(s, m))
		s.net = append(s.net, m)
	case core.MMPStore:
		s.dirs[m.Dir].mp.Submit(m,
			func(cm core.Msg) { c.commitAtomic(s, cm) },
			func(f core.Msg) {
				s.net = append(s.net, core.Msg{Kind: core.MMPFlushOK, Src: f.Src})
			})
	case core.MMPFlush:
		if s.dirs[m.Dir].mp.Flush(m) {
			s.net = append(s.net, core.Msg{Kind: core.MMPFlushOK, Src: m.Src})
		}
	case core.MWBGetM:
		s.net = append(s.net, core.Msg{Kind: core.MWBFill, Src: m.Src, Addr: m.Addr})
	case core.MWBData, core.MWBFlag:
		ack := core.Msg{Kind: core.MWBAck, Src: m.Src}
		if old := commit(s, m); m.Atomic {
			ack.Atomic, ack.Val, ack.Tag = true, old, m.Tag
		}
		s.net = append(s.net, ack)
	default:
		panic(fmt.Sprintf("litmus: unknown message kind %d", m.Kind))
	}
}

// commit applies m's memory effect at its directory — a write, or a
// fetch-add for an atomic — and returns the cell's previous value.
func commit(s *world, m core.Msg) uint64 {
	cell := &s.dirs[m.Dir].mem[m.Addr]
	old := *cell
	if m.Atomic {
		*cell += int(m.Val)
	} else {
		*cell = int(m.Val)
	}
	return uint64(old)
}

// commitAtomic commits a CORD relaxed store or MP posted write; an atomic's
// old value goes back to its issuer.
func (c *checker) commitAtomic(s *world, m core.Msg) {
	if old := commit(s, m); m.Atomic {
		s.net = append(s.net, core.Msg{Kind: core.MAtomicResp, Src: m.Src, Val: old, Tag: m.Tag})
	}
}

// commitRelease applies an eligible release at directory d: the memory (or
// fetch-add) effect, the directory bookkeeping, and the acknowledgment.
func (c *checker) commitRelease(s *world, d int, m core.Msg) {
	if !m.Barrier {
		c.commitAtomic(s, m)
	}
	s.dirs[d].cord.CommitRelease(m)
	s.net = append(s.net, core.Msg{Kind: core.MAck, Src: m.Src, Dir: d, Ep: m.Ep})
}

// serveNotify serves an eligible notification request; self-notifications
// are absorbed locally and may unblock buffered work.
func (c *checker) serveNotify(s *world, d int, m core.Msg) {
	out, wire := s.dirs[d].cord.SendNotify(m, d)
	if wire {
		s.net = append(s.net, out)
	} else {
		c.reeval(s, d)
	}
}

// reeval drains directory d's recycle buffers to a fixpoint after any event
// that may have made buffered releases or requests eligible.
func (c *checker) reeval(s *world, d int) {
	s.dirs[d].cord.Reeval(d,
		func(m core.Msg) { c.commitRelease(s, d, m) },
		func(out core.Msg) { s.net = append(s.net, out) })
}
