package core

import "fmt"

// SOProc is the source-ordering baseline's processor state: every store is
// written through and acknowledged individually, and an operation that must
// order (a release, barrier, or ordered atomic) waits until the outstanding
// count drains to zero.
type SOProc struct {
	PendingAcks int
	AtomWait    bool // a far atomic's value is outstanding
	WC          Combiner
}

// Issue is the SO processor's issue rule.
func (p *SOProc) Issue(op *Op, buf []Msg) ([]Msg, Wait) {
	if op.Release && !p.Drained() {
		return buf, Wait{Verdict: Refuse, On: WaitAcks}
	}
	switch {
	case op.Kind == OpBarrier:
		return buf, Wait{}
	case op.Kind == OpAtomic:
		p.AtomWait = true
		return p.Store(op, buf), Wait{Verdict: Await, On: WaitAtomic}
	case op.Release:
		// Only a release store closes the write-combining buffer. An atomic
		// and a release barrier leave it open, so the next relaxed store to
		// the same address merges into a transaction that has already
		// completed and never reaches memory: a known defect, kept here so
		// that fixing it moves the pinned SO results in one place
		// (ROADMAP, "SO drops stores that follow a far atomic or a release
		// barrier").
		p.WC.Clear()
	case p.WC.Hit(op.Addr):
		return buf, Wait{}
	default:
		p.WC.Set(op.Addr)
	}
	return p.Store(op, buf), Wait{}
}

// Store records one write-through store (or far atomic) awaiting its ack and
// appends its message to buf. Issue calls it; so does the simulator's TSO
// store buffer, which drains stores one at a time without write-combining.
func (p *SOProc) Store(op *Op, buf []Msg) []Msg {
	p.PendingAcks++
	return append(buf, Msg{Kind: MSOStore, Src: op.Src, Dir: op.Dir, Addr: op.Addr, Val: op.Val,
		Size: op.Size, Release: op.Release, Atomic: op.Kind == OpAtomic, Tag: op.Tag})
}

// Blocked reports whether the wait w still holds.
func (p *SOProc) Blocked(w Wait) bool {
	switch w.On {
	case WaitAtomic:
		return p.AtomWait
	case WaitAcks:
		return !p.Drained()
	}
	return false
}

// Drained reports whether every store is acknowledged, the condition an
// ordering operation waits for.
func (p *SOProc) Drained() bool { return p.PendingAcks == 0 }

// Receive applies a store's acknowledgment; an atomic's carries its value.
func (p *SOProc) Receive(m *Msg) {
	if m.Kind != MSOAck {
		panic(fmt.Sprintf("core: SO processor got message kind %d", m.Kind))
	}
	if p.PendingAcks == 0 {
		panic("core: SO ack with no store outstanding")
	}
	p.PendingAcks--
	if m.Atomic {
		p.AtomWait = false
	}
}

// SOAck is the SO directory rule: a store commits on arrival and the
// MSOStore m becomes, in place, its acknowledgment to the source, keeping
// Src, Dir, Tag and the Release and Atomic flags; an atomic's
// acknowledgment carries the previous value (old) back in Val.
func SOAck(m *Msg, old uint64) {
	m.Kind, m.Addr, m.Val, m.Size = MSOAck, 0, old, 0
}
