package core

// This file is the processor side's shared vocabulary: each protocol's
// processor state has an Issue rule, which emits an op's messages and
// returns a Wait, and a Receive rule, which applies replies. Both drivers
// run them (DESIGN.md §9.2).

// OpKind is what a processor hands to its protocol. Loads are the drivers'
// own: the simulator polls, the checker reads the home directory.
type OpKind uint8

const (
	OpStore     OpKind = iota // write-through store
	OpAtomic                  // far fetch-add; the old value comes back
	OpBarrier                 // memory barrier; without Release a no-op
	OpWriteBack               // CORD's source-ordered write-back store (§4.4)
)

// Op is one operation for an Issue rule. The driver resolves the home
// directory, the MP ordering domain and the WB line.
type Op struct {
	Kind    OpKind
	Release bool // release ordering (SeqCst atomics and barriers included)
	Src     int  // issuing processor
	Dir     int  // home directory of Addr
	Domain  int  // MP ordering domain of Addr (a host, or the directory)
	Addr    uint64
	Line    uint64 // WB: the cache line holding Addr
	Val     uint64
	Size    int
	Tag     uint64 // copied onto an atomic's request (the checker's register)
}

// Verdict is how an Issue rule leaves the op.
type Verdict uint8

const (
	Done   Verdict = iota // complete: the next op may issue
	Await                 // complete, but the next op waits for Wait.On
	Retry                 // partly issued: run Issue again once Wait.On clears
	Refuse                // nothing changed: run Issue again once Wait.On clears
)

// WaitOn names the condition a processor waits on. Each protocol's Blocked
// rule evaluates the ones it returns.
type WaitOn uint8

const (
	WaitNone     WaitOn = iota
	WaitAtomic          // the far atomic's value response
	WaitAcks            // every outstanding store/flag/write-back ack
	WaitFill            // WB: ownership fills before a flush
	WaitMSHR            // WB: a free miss register
	WaitFlushes         // MP: the barrier's flushing reads answered
	WaitEpochs          // CORD: every unacked epoch (a barrier completes)
	WaitDrain           // CORD NoNotifications: acks outside Wait.Dir
	WaitWindow          // CORD: Wait.Dir unprovisioned, epoch window exhausted
	WaitTables          // CORD: Wait.Dir unprovisioned, a table full
	WaitOverflow        // CORD: the counter-overflow flush's ack
	WaitCntTable        // CORD: the counter-table flush's ack
)

// Wait is an Issue rule's verdict and, unless Done, what it waits on.
type Wait struct {
	Verdict Verdict
	On      WaitOn
	Dir     int // WaitDrain, WaitWindow, WaitTables: the directory named
}

// Combiner is a one-entry write-combining buffer: a relaxed store to the
// address of the previous relaxed store merges into that store's
// transaction, which keeps the earlier value. Each protocol clears it at
// its own sites; a cleared buffer holds the zero value, so it encodes
// canonically.
type Combiner struct {
	Addr  uint64
	Valid bool
}

// Hit reports whether a relaxed store to addr merges.
func (c *Combiner) Hit(addr uint64) bool { return c.Valid && c.Addr == addr }

// Set makes addr the open transaction.
func (c *Combiner) Set(addr uint64) { *c = Combiner{Addr: addr, Valid: true} }

// Clear closes the open transaction.
func (c *Combiner) Clear() { *c = Combiner{} }

// Relabel maps an open transaction's address (the checker's symmetry).
func (c *Combiner) Relabel(addr func(uint64) uint64) {
	if c.Valid {
		c.Addr = addr(c.Addr)
	}
}

// ReturnsValue reports whether m carries a far atomic's old value back to
// its issuer, whose register Tag names in the checker.
func ReturnsValue(m Msg) bool {
	switch m.Kind {
	case MAtomicResp:
		return true
	case MSOAck, MWBAck:
		return m.Atomic
	}
	return false
}
