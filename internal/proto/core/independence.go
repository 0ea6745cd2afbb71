package core

// This file declares the independence metadata the model checker's
// partial-order reduction consults (internal/litmus/por.go). Every protocol
// rule's footprint — what a message's delivery reads and writes — is
// summarized per message kind, so the checker can decide which deliveries
// commute with every other transition and are therefore safe to fire eagerly
// without exploring their interleavings.
//
// The classification is conservative: a kind is only marked safe when its
// delivery (a) targets state no other enabled-or-future transition reads or
// writes before the delivery fires, (b) never disables another transition,
// and (c) leaves every property-relevant observable (memory cells, the
// epoch-window fields Ep/Unacked) untouched. DESIGN.md §14 gives the
// commutation argument per kind.

// DeliverySafe reports whether delivering m commutes with every other
// transition in every reachable state — the unconditional tier of the
// checker's ample sets:
//
//   - MAtomicResp writes only the issuer's register and AtomWait flag, and
//     the issuer is blocked until it arrives, so nothing can race it.
//   - MSOAck and MWBAck decrement the issuer's outstanding-ack counter
//     (plus, for atomics, the blocked issuer's register). The counter is read
//     only by the issuer's own guards, which the decrement can only enable.
//   - MMPFlushOK decrements the issuer's flush-pending counter, read only by
//     the issuer's barrier guard.
//   - MWBFill moves a line from Fetching to Owned and frees an MSHR. Stores
//     treat fetching and owned lines identically (StoreAdmit), so no enabled
//     transition changes behaviour; CanFlush can only become true.
//   - MWBGetM reads and writes nothing — its delivery just emits the fill.
//
// MAck is deliberately absent: retiring an epoch mutates the processor's
// Unacked table, the very state the epoch-window invariant reads, so its
// interleavings are property-visible and must be explored in full.
func DeliverySafe(m Msg) bool {
	switch m.Kind {
	case MAtomicResp, MSOAck, MWBAck, MMPFlushOK, MWBFill, MWBGetM:
		return true
	}
	return false
}

// WritesAddr reports the memory address m's delivery (or eventual commit,
// for posted/buffered kinds) writes, if any. The checker uses this to decide
// whether an address is contended: two in-flight writers to one address, or
// a writer racing a future load, are dependent and must interleave.
func WritesAddr(m Msg) (addr uint64, ok bool) {
	switch m.Kind {
	case MRelaxed, MSOStore, MMPStore, MWBData, MWBFlag:
		return m.Addr, true
	case MRelease:
		if m.Barrier {
			return 0, false
		}
		return m.Addr, true
	}
	return 0, false
}

// ReadsMemory reports whether m's delivery observes a memory cell's prior
// value (read-modify-write atomics): such deliveries are dependent on every
// write to the same address regardless of kind.
func ReadsMemory(m Msg) bool { return m.Atomic }
