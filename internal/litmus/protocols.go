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
	s, _ := c.stepProcKind(w, p)
	return s
}

// stepProcKind is stepProc plus the step's reduction class.
func (c *checker) stepProcKind(w *world, p int) (*world, stepKind) {
	ps := &w.procs[p]
	if ps.flushWait >= 0 {
		return nil, stepUnsafe // stalled on an injected overflow flush
	}
	if ps.atomWait {
		return nil, stepUnsafe // blocked on a far atomic's value response
	}
	if ps.pc >= len(c.t.Progs[p]) {
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
	switch c.cfg.protoFor(p) {
	case CORDP:
		return c.cordOp(w, p, op)
	case SOP:
		return c.soOp(w, p, op)
	case MPP:
		return c.mpOp(w, p, op)
	case WBP:
		return c.wbOp(w, p, op)
	}
	panic(fmt.Sprintf("litmus: processor %d runs unknown protocol", p))
}

// --- CORD processor (Alg. 1 via core.CordProc) ---

func (c *checker) cordOp(w *world, p int, op Op) (*world, stepKind) {
	ps := &w.procs[p]
	switch op.Kind {
	case OpBar:
		// Release barrier (§4.4): broadcast empty releases to every dirty
		// directory, then stall until all outstanding epochs are acked.
		if ps.cord.Dirty() {
			s := w.clone()
			net, ok, _ := s.procs[p].cord.IssueBarrier(c.cp, -1, p, s.net)
			if !ok {
				s.recycle()
				return nil, stepUnsafe // under-provisioned: wait for acks
			}
			s.net = net
			// pc unchanged; completion is the next attempt. With no unacked
			// epochs the broadcast is chain-head-safe (see cordRelease).
			return s, chainHeadKind(ps, c, s)
		}
		if len(ps.cord.Unacked) > 0 {
			return nil, stepUnsafe
		}
		s := w.clone()
		s.procs[p].pc++
		// Unacked is empty, so no MAck for p is in flight: the completion
		// guard can never be racing a disable and the step only bumps pc.
		return s, stepSafe
	case OpSt, OpAt:
		rel := core.Msg{Src: p, Addr: uint64(op.Addr), Val: uint64(op.Val)}
		if op.Kind == OpAt {
			rel.Atomic = true
			rel.Tag = uint64(op.Reg)
		}
		if op.Ord == Rel {
			return c.cordRelease(w, p, c.home(op.Addr), rel)
		}
		return c.cordRelaxed(w, p, c.home(op.Addr), rel)
	}
	panic(fmt.Sprintf("litmus: CORD cannot execute %v", op))
}

// cordRelaxed posts a directory-ordered relaxed store (or relaxed far
// atomic), stall-flushing first if the store counter would overflow or the
// counter table has no free slot (§4.3).
func (c *checker) cordRelaxed(w *world, p, d int, st core.Msg) (*world, stepKind) {
	ps := &w.procs[p]
	if ps.cord.RelaxedAdmit(c.cp, d) != core.AdmitOK {
		// Inject an empty release to d through the full release path
		// (ReqNotify fan-out included), stall until it acks, then retry.
		if !ps.cord.Provisioned(c.cp, d) {
			return nil, stepUnsafe
		}
		s := w.clone()
		sp := &s.procs[p]
		ep := sp.cord.Ep
		s.net = sp.cord.IssueRelease(d, core.Msg{Src: p, Barrier: true}, s.net)
		sp.flushWait = int64(ep)
		// pc unchanged; chain-head-safe under the same conditions as a
		// release issue (the flush stall only blocks p itself).
		return s, chainHeadKind(ps, c, s)
	}
	s := w.clone()
	sp := &s.procs[p]
	ep, _ := sp.cord.NoteRelaxed(d)
	st.Kind = core.MRelaxed
	st.Dir = d
	st.Ep = ep
	if st.Atomic {
		sp.atomWait = true
	}
	s.net = append(s.net, st)
	sp.pc++
	// Admission only bumps p's private counters (Cnt/CntLive) and appends a
	// message; it cannot be disabled (AdmitOK is monotone under other
	// components' transitions) and touches neither memory nor the window.
	return s, stepSafe
}

// cordRelease issues a release store (or release far atomic) to directory d
// with its notification-request fan-out.
func (c *checker) cordRelease(w *world, p, d int, rel core.Msg) (*world, stepKind) {
	ps := &w.procs[p]
	if c.cp.NoNotifications {
		// Ablated §4.2: fall back to source ordering across directories —
		// drain the other dirty directories with empty releases, wait for
		// their acks, then release with an empty fan-out.
		if ps.cord.DirtyOutside(d) {
			s := w.clone()
			net, ok, _ := s.procs[p].cord.IssueBarrier(c.cp, d, p, s.net)
			if !ok {
				s.recycle()
				return nil, stepUnsafe
			}
			s.net = net
			// pc unchanged; the release follows after the drain.
			return s, chainHeadKind(ps, c, s)
		}
		if ps.cord.UnackedOutside(d) {
			return nil, stepUnsafe
		}
	}
	if !ps.cord.Provisioned(c.cp, d) {
		return nil, stepUnsafe
	}
	s := w.clone()
	sp := &s.procs[p]
	s.net = sp.cord.IssueRelease(d, rel, s.net)
	if rel.Atomic {
		sp.atomWait = true
	}
	sp.pc++
	// A release advances Ep and appends to Unacked — the epoch-window
	// observables — and its ReqNotify fan-out reads ByDir/lastUnackedFor, so
	// it generally conflicts with p's in-flight MAcks. At the head of a chain
	// the conflict vanishes: see chainHeadKind.
	return s, chainHeadKind(ps, c, s)
}

// chainHeadKind classifies a just-applied release/barrier/flush issue from a
// processor whose pre-state ps had no unacknowledged epochs. With Unacked
// empty there is no MAck in flight for the processor, so nothing can race
// the issue's guard or change the ReqNotify fan-out it computed (Cnt and
// ByDir are processor-private); the post-state's window distance is at most
// one, so the epoch-window predicate cannot flip unless it already reads
// true elsewhere (checked on the built successor, belt and braces). Such a
// chain-head issue commutes with every co-enabled transition and is safe;
// issues under an open ack chain stay fully interleaved.
func chainHeadKind(ps *procState, c *checker, s *world) stepKind {
	if len(ps.cord.Unacked) == 0 && !c.windowViolated(s) {
		return stepSafe
	}
	return stepUnsafe
}

// --- SO processor (source ordering via core.SOProc) ---

func (c *checker) soOp(w *world, p int, op Op) (*world, stepKind) {
	ps := &w.procs[p]
	if op.Kind == OpBar {
		if !ps.so.Drained() {
			return nil, stepUnsafe
		}
		// Drained means no MSOAck for p is in flight, so the guard cannot be
		// racing anything; the step only bumps pc.
		s := w.clone()
		s.procs[p].pc++
		return s, stepSafe
	}
	if op.Ord == Rel && !ps.so.CanIssueOrdered() {
		return nil, stepUnsafe // a release waits for every prior store's ack
	}
	s := w.clone()
	sp := &s.procs[p]
	sp.so.NoteStore()
	m := core.Msg{Kind: core.MSOStore, Src: p, Dir: c.home(op.Addr),
		Addr: uint64(op.Addr), Val: uint64(op.Val), Release: op.Ord == Rel}
	if op.Kind == OpAt {
		m.Atomic = true
		m.Tag = uint64(op.Reg)
		sp.atomWait = true
	}
	s.net = append(s.net, m)
	sp.pc++
	// Issue touches only p's ack counter and the network. If the release
	// guard held it holds in every interleaving (acks only drain it).
	return s, stepSafe
}

// --- MP processor (posted writes via core.MPProc) ---

func (c *checker) mpOp(w *world, p int, op Op) (*world, stepKind) {
	ps := &w.procs[p]
	if op.Kind == OpBar {
		// A barrier is a flushing read to every posted-to ordering domain
		// (here: directory); issue the fan-out once, then stall for the
		// responses.
		if !ps.barIssued {
			s := w.clone()
			sp := &s.procs[p]
			inFlight := len(s.net)
			s.net = sp.mp.FlushTargets(p, s.net)
			sp.mpFlushPending = len(s.net) - inFlight
			sp.barIssued = true
			// Only p's flush bookkeeping and the network change; the flush
			// markers order behind already-posted stores wherever they land.
			return s, stepSafe
		}
		if ps.mpFlushPending > 0 {
			return nil, stepUnsafe
		}
		s := w.clone()
		s.procs[p].barIssued = false
		s.procs[p].pc++
		// mpFlushPending reached zero: every flush response arrived, nothing
		// can re-disable the completion guard.
		return s, stepSafe
	}
	d := c.home(op.Addr)
	s := w.clone()
	sp := &s.procs[p]
	m := core.Msg{Kind: core.MMPStore, Src: p, Dir: d, Seq: sp.mp.NextSeq(d),
		Addr: uint64(op.Addr), Val: uint64(op.Val)}
	if op.Kind == OpAt {
		// Non-posted far atomic: ordered in the same per-domain stream.
		m.Atomic = true
		m.Tag = uint64(op.Reg)
		sp.atomWait = true
	}
	s.net = append(s.net, m)
	sp.pc++
	return s, stepSafe
}

// --- WB processor (write-back ownership via core.WBProc) ---

func (c *checker) wbOp(w *world, p int, op Op) (*world, stepKind) {
	ps := &w.procs[p]
	ordered := op.Ord == Rel || op.Kind == OpBar
	if ordered {
		// Release discipline: drain MSHRs, write every dirty line back,
		// drain the acknowledgments, then perform the op proper.
		if !ps.wb.CanFlush() {
			return nil, stepUnsafe
		}
		if ps.wb.Dirty() {
			s := w.clone()
			sp := &s.procs[p]
			sp.wb.FlushLines(func(l *core.WBLine) {
				l.Each(func(a, v uint64) {
					s.net = append(s.net, core.Msg{Kind: core.MWBData, Src: p,
						Dir: c.home(Addr(a)), Addr: a, Val: v})
				})
			})
			// Moves p's dirty table onto the wire; CanFlush held (no fills
			// in flight) so no concurrent transition touches the same state.
			return s, stepSafe // pc unchanged; the op follows once acks drain
		}
		if !ps.wb.Drained() {
			return nil, stepUnsafe
		}
		if op.Kind == OpBar {
			s := w.clone()
			s.procs[p].pc++
			return s, stepSafe
		}
	}
	if op.Kind == OpAt || op.Ord == Rel {
		// Flags and far atomics are written through at the home directory
		// (uncached), acked individually.
		s := w.clone()
		sp := &s.procs[p]
		sp.wb.NoteFlag()
		m := core.Msg{Kind: core.MWBFlag, Src: p, Dir: c.home(op.Addr),
			Addr: uint64(op.Addr), Val: uint64(op.Val)}
		if op.Kind == OpAt {
			m.Atomic = true
			m.Tag = uint64(op.Reg)
			sp.atomWait = true
		}
		s.net = append(s.net, m)
		sp.pc++
		return s, stepSafe
	}
	// Relaxed store: allocate ownership of the line (one line per model
	// address) and merge into the dirty table.
	line := uint64(op.Addr)
	switch ps.wb.StoreAdmit(c.cfg.wbMSHRs(), line) {
	case core.WBMSHRFull:
		return nil, stepUnsafe
	case core.WBHit:
		s := w.clone()
		s.procs[p].wb.RecordDirty(line, uint64(op.Addr), uint64(op.Val))
		s.procs[p].pc++
		return s, stepSafe
	default: // WBMiss
		s := w.clone()
		sp := &s.procs[p]
		sp.wb.BeginFetch(line)
		sp.wb.RecordDirty(line, uint64(op.Addr), uint64(op.Val))
		s.net = append(s.net, core.Msg{Kind: core.MWBGetM, Src: p,
			Dir: c.home(op.Addr), Addr: line})
		sp.pc++
		return s, stepSafe
	}
}

// --- deliveries ---

// deliver applies one in-flight message to the world (the message is
// already removed from s.net).
func (c *checker) deliver(s *world, m core.Msg) {
	switch m.Kind {
	case core.MRelaxed:
		ds := &s.dirs[m.Dir]
		if m.Atomic {
			old := ds.mem[m.Addr]
			ds.mem[m.Addr] += int(m.Val)
			s.net = append(s.net, core.Msg{Kind: core.MAtomicResp, Src: m.Src,
				Val: uint64(old), Tag: m.Tag})
		} else {
			ds.mem[m.Addr] = int(m.Val)
		}
		ds.cord.NoteRelaxed(m.Src, m.Ep)
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
	case core.MAck:
		ps := &s.procs[m.Src]
		if ps.cord.AckRelease(m.Ep) && ps.flushWait == int64(m.Ep) {
			ps.flushWait = -1 // overflow flush acked: retry the stalled op
		}
	case core.MAtomicResp:
		s.procs[m.Src].regs[m.Tag] = int(m.Val)
		s.procs[m.Src].atomWait = false
	case core.MSOStore:
		ds := &s.dirs[m.Dir]
		old := ds.mem[m.Addr]
		if m.Atomic {
			ds.mem[m.Addr] += int(m.Val)
		} else {
			ds.mem[m.Addr] = int(m.Val)
		}
		s.net = append(s.net, core.SOAck(m, uint64(old)))
	case core.MSOAck:
		ps := &s.procs[m.Src]
		ps.so.NoteAck()
		if m.Atomic {
			ps.regs[m.Tag] = int(m.Val)
			ps.atomWait = false
		}
	case core.MMPStore:
		s.dirs[m.Dir].mp.Submit(m,
			func(cm core.Msg) { c.mpCommit(s, cm) },
			func(f core.Msg) {
				s.net = append(s.net, core.Msg{Kind: core.MMPFlushOK, Src: f.Src})
			})
	case core.MMPFlush:
		if s.dirs[m.Dir].mp.Flush(m) {
			s.net = append(s.net, core.Msg{Kind: core.MMPFlushOK, Src: m.Src})
		}
	case core.MMPFlushOK:
		ps := &s.procs[m.Src]
		if ps.mpFlushPending == 0 {
			panic("litmus: spurious MP flush response")
		}
		ps.mpFlushPending--
	case core.MWBGetM:
		s.net = append(s.net, core.Msg{Kind: core.MWBFill, Src: m.Src, Addr: m.Addr})
	case core.MWBFill:
		s.procs[m.Src].wb.Fill(m.Addr)
	case core.MWBData:
		s.dirs[m.Dir].mem[m.Addr] = int(m.Val)
		s.net = append(s.net, core.Msg{Kind: core.MWBAck, Src: m.Src})
	case core.MWBFlag:
		ds := &s.dirs[m.Dir]
		ack := core.Msg{Kind: core.MWBAck, Src: m.Src}
		if m.Atomic {
			old := ds.mem[m.Addr]
			ds.mem[m.Addr] += int(m.Val)
			ack.Atomic, ack.Val, ack.Tag = true, uint64(old), m.Tag
		} else {
			ds.mem[m.Addr] = int(m.Val)
		}
		s.net = append(s.net, ack)
	case core.MWBAck:
		ps := &s.procs[m.Src]
		ps.wb.NoteAck()
		if m.Atomic {
			ps.regs[m.Tag] = int(m.Val)
			ps.atomWait = false
		}
	default:
		panic(fmt.Sprintf("litmus: unknown message kind %d", m.Kind))
	}
}

// mpCommit applies a FIFO-drained posted write at its directory.
func (c *checker) mpCommit(s *world, m core.Msg) {
	ds := &s.dirs[m.Dir]
	if m.Atomic {
		old := ds.mem[m.Addr]
		ds.mem[m.Addr] += int(m.Val)
		s.net = append(s.net, core.Msg{Kind: core.MAtomicResp, Src: m.Src,
			Val: uint64(old), Tag: m.Tag})
		return
	}
	ds.mem[m.Addr] = int(m.Val)
}

// commitRelease applies an eligible release at directory d: the memory (or
// fetch-add) effect, the directory bookkeeping, and the acknowledgment.
func (c *checker) commitRelease(s *world, d int, m core.Msg) {
	ds := &s.dirs[d]
	switch {
	case m.Atomic:
		old := ds.mem[m.Addr]
		ds.mem[m.Addr] += int(m.Val)
		s.net = append(s.net, core.Msg{Kind: core.MAtomicResp, Src: m.Src,
			Val: uint64(old), Tag: m.Tag})
	case !m.Barrier:
		ds.mem[m.Addr] = int(m.Val)
	}
	ds.cord.CommitRelease(m)
	s.net = append(s.net, core.Msg{Kind: core.MAck, Src: m.Src, Dir: d, Ep: m.Ep})
}

// serveNotify serves an eligible notification request; self-notifications
// are absorbed locally and may unblock buffered work.
func (c *checker) serveNotify(s *world, d int, m core.Msg) {
	out, wire, _, _ := s.dirs[d].cord.SendNotify(m, d)
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
		func(out core.Msg) { s.net = append(s.net, out) },
		func() {})
}
