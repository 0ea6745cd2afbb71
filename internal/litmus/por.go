package litmus

import (
	"bytes"

	"cord/internal/proto/core"
)

// Ample-set partial-order reduction (DESIGN.md §14). When a state has an
// enabled transition that commutes with every other transition — a "safe"
// transition — exploring its interleavings against the rest is pure
// redundancy: every ordering reaches the same states. The explorer then
// expands a singleton ample set (just that transition) instead of the full
// successor list.
//
// A transition is safe only if (C1) it is independent of every other
// transition on any path that delays it — it cannot be disabled, and firing
// it commutes state-for-state with everything else — and (C2) it is
// invisible to the properties: it never touches a memory-outcome or
// epoch-window observable in a way an interleaving could distinguish.
// Terminal states (the outcome observables) are preserved exactly: safe
// transitions stay enabled until fired, so every maximal run fires the same
// transition multiset and ends in the same terminal states. The cycle
// proviso (C3) is vacuous here: the transition graph is acyclic — program
// counters, epochs and barrier flags only advance, ruling processor steps
// out of any cycle, and every delivery strictly shrinks a weighted message
// pool (each arrival consumes more weight than the messages and recycled
// buffer entries it emits). An acyclic graph cannot postpone a transition
// forever, and — unlike a visited-order proviso — keeps the reduced graph a
// pure function of the state, so verdicts and state counts stay independent
// of worker count and schedule.
//
// The safe-transition tiers:
//
//   - processor steps classified stepSafe by the protocol drivers
//     (protocols.go): pure issue steps that touch only the stepping
//     processor's private bookkeeping plus the network;
//   - loads, when their address is write-cold (no in-flight, buffered,
//     dirty-table or still-to-be-issued writer anywhere): the read value is
//     interleaving-independent (addrHeat);
//   - deliveries whose kind is unconditionally safe (core.DeliverySafe:
//     pure responses draining a blocked issuer's wait state);
//   - MRelaxed deliveries to a cold address (exactly one in-flight writer —
//     itself — and no present-or-future reader) at a directory with empty
//     recycle buffers: the memory write is unobservable, the counter bump
//     commutes with eligibility checks (a later release/request sees the
//     same table either way), and reeval is a no-op;
//   - MNotify deliveries at a directory with empty recycle buffers: the
//     notification table entry only ever helps future eligibility.
//
// Never safe: CORD release/barrier/overflow-flush issues and MAck
// deliveries (they move Ep/Unacked, the epoch-window observables), and any
// delivery that commits to contended memory.

// addrHeat summarizes, per address, the writers that exist anywhere in the
// system — in-flight messages, buffered releases and posted writes, dirty
// write-back lines, and not-yet-issued program ops — plus whether any
// present or future reader observes the address.
type addrHeat struct {
	writers [MaxAddrs]int
	readers [MaxAddrs]bool
}

func (c *checker) heat(w *world) addrHeat {
	var h addrHeat
	for p := range w.procs {
		prog := c.t.Progs[p]
		pc := w.procs[p].pc
		if pc > len(prog) {
			pc = len(prog)
		}
		for _, op := range prog[pc:] {
			switch op.Kind {
			case OpSt:
				h.writers[op.Addr]++
			case OpAt:
				h.writers[op.Addr]++
				h.readers[op.Addr] = true
			case OpLd:
				h.readers[op.Addr] = true
			}
		}
		w.procs[p].wb.EachDirtyWord(func(a, _ uint64) { h.writers[a]++ })
	}
	scan := func(ms []core.Msg) {
		for _, m := range ms {
			if a, ok := core.WritesAddr(m); ok {
				h.writers[a]++
			}
			if core.ReadsMemory(m) {
				h.readers[m.Addr] = true
			}
		}
	}
	scan(w.net)
	for d := range w.dirs {
		scan(w.dirs[d].cord.PendingRel)
		scan(w.dirs[d].mp.Pending)
	}
	return h
}

// onlyLoadsLeft reports that the program has no store, atomic or barrier at
// or after pc — the processor can never again issue a release or stall on an
// overflow flush, so its epoch bookkeeping is frozen except for draining.
func onlyLoadsLeft(prog []Op, pc int) bool {
	if pc > len(prog) {
		pc = len(prog)
	}
	for _, op := range prog[pc:] {
		if op.Kind != OpLd {
			return false
		}
	}
	return true
}

// ample returns the singleton reduced successor of w — one safe transition,
// its step recorded — or nil when no safe transition is enabled (the
// caller then expands w fully, reusing the processor successors probed here:
// sc.probes). When several safe transitions are enabled the one whose
// successor has the minimal canonical key is chosen: the choice is then a
// function of the state's equivalence class, not of net slice order or of
// which symmetric representative a worker reached first, which keeps reduced
// state counts worker- and schedule-independent. Every successor built and
// not returned or handed on is recycled.
func (c *checker) ample(w *world, sc *scratch) *world {
	cands := sc.cands[:0]
	if len(sc.probes) != len(w.procs) {
		sc.probes = make([]*world, len(w.procs))
	}
	var h addrHeat
	haveHeat := false
	ensureHeat := func() *addrHeat {
		if !haveHeat {
			h = c.heat(w)
			haveHeat = true
		}
		return &h
	}
	for p := range w.procs {
		s, kind := c.stepProcKind(w, p, &sc.probe)
		sc.probes[p] = nil
		if s == nil {
			continue
		}
		switch kind {
		case stepSafe:
		case stepLoad:
			if ensureHeat().writers[c.t.Progs[p][w.procs[p].pc].Addr] != 0 {
				sc.probes[p] = s
				continue
			}
		default:
			sc.probes[p] = s
			continue
		}
		s.edge.step = Step{Proc: p}
		cands = append(cands, s)
	}
	// cold reports that m's memory write is unobservable: never read by an
	// atomic or a program load, and m is the last writer standing, so the
	// final cell value is interleaving-independent.
	cold := func(m core.Msg) bool {
		return !m.Atomic && !ensureHeat().readers[m.Addr] &&
			ensureHeat().writers[m.Addr] == 1
	}
	// invisibleCascade reports that a delivery touching (src, *) state at
	// directory d can only cascade invisibly: the reeval it triggers can
	// commit only src's buffered releases (eligibility depends on per-(proc,
	// epoch) counters and on Largest[src], so other processors' buffered
	// messages are unaffected) and serving buffered requests writes no
	// memory, so the cascade is observable only if one of src's buffered
	// releases carries an observable write.
	invisibleCascade := func(d, src int) bool {
		for _, b := range w.dirs[d].cord.PendingRel {
			if b.Src == src && !b.Barrier && !cold(b) {
				return false
			}
		}
		return true
	}
	for i := range w.net {
		m := w.net[i]
		ok := core.DeliverySafe(m)
		if !ok {
			switch m.Kind {
			case core.MRelaxed:
				ok = cold(m) && invisibleCascade(m.Dir, m.Src)
			case core.MNotify:
				ok = invisibleCascade(m.Dir, m.Src)
			case core.MReqNotify:
				// Always safe. An eligible request is served on the spot: one
				// Cnt entry (whose consumption order the HasPrev chain already
				// fixes) retires and the MNotify goes on the wire — no memory
				// effect, no reeval (Dst is always another directory). An
				// ineligible request parks in PendingReq, which the encoding
				// canonicalizes as a multiset, and is served inside the
				// delivery that makes it eligible — request service never
				// writes memory, so the repackaging is unobservable.
				ok = true
			case core.MRelease:
				// A release whose memory effect is unobservable — barrier
				// releases write nothing; data releases qualify under the
				// cold-address rule — is safe: if eligible it commits now
				// (bookkeeping is monotone-enabling, the MAck it emits is a
				// separate window-visible delivery, and any cascade must be
				// invisible); if ineligible it parks in the multiset-encoded
				// PendingRel and commits inside the enabling delivery, which
				// observers cannot distinguish because the write itself is
				// unobservable. Releases with observable writes interleave
				// fully in both roles.
				if m.Barrier || cold(m) {
					if w.dirs[m.Dir].cord.ReleaseEligible(m) {
						ok = invisibleCascade(m.Dir, m.Src)
					} else {
						ok = true
					}
				}
			case core.MAck:
				// Acks move Unacked — the epoch-window observable — can
				// unblock stalled issues, and race the ReqNotify fan-out
				// computation of the processor's next release, so they
				// normally interleave fully. Once the target processor has
				// nothing left but loads it can neither issue nor stall
				// again: the ack only shrinks window pressure (any violation
				// predates it and was checked where it arose) and touches
				// state nothing else reads.
				ok = onlyLoadsLeft(c.t.Progs[m.Src], w.procs[m.Src].pc)
			case core.MMPStore:
				// Test hook: a deliberately broken independence relation that
				// treats racing posted stores as commuting. Unsound — the
				// ordering point commits them in arrival order — and kept
				// only so por_test.go can show the soundness argument has
				// teeth.
				ok = c.porUnsound
			}
		}
		if !ok {
			continue
		}
		s := w.clone()
		s.net = append(s.net[:i], s.net[i+1:]...)
		c.deliver(s, m)
		s.edge.step = Step{Deliver: true, Msg: m}
		cands = append(cands, s)
	}
	sc.cands = cands
	if len(cands) == 0 {
		sc.probed = w
		return nil
	}
	for p, s := range sc.probes {
		if s != nil {
			s.recycle()
			sc.probes[p] = nil
		}
	}
	best := 0
	if len(cands) > 1 {
		sc.best = append(sc.best[:0], c.key(cands[0], sc)...)
		for i := 1; i < len(cands); i++ {
			key := c.key(cands[i], sc)
			if bytes.Compare(key, sc.best) < 0 {
				best, sc.best = i, append(sc.best[:0], key...)
			}
		}
	}
	chosen := cands[best]
	for i, s := range cands {
		if i != best {
			s.recycle()
		}
		cands[i] = nil
	}
	if c.recycleChosen {
		chosen.recycle() // test mutant: the chain goes on to use it
	}
	return chosen
}
