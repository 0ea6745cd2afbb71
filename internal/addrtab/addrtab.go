// Package addrtab is the flat address-keyed table behind the simulator's
// per-message state: each directory slice's memory (memsys.Store) and the
// write-back baseline's line table (core.WBProc).
//
// A Table maps 64-bit addresses to 64-bit words by open addressing. The
// (address, word) pairs sit in one flat slice whose length is a power of
// two; an address's line hashes multiplicatively (Fibonacci hashing, Knuth
// TAOCP §6.4) to the line's home slot, and a collision probes the following
// slots linearly. A read-modify-write (Max, Ref) costs a single probe
// sequence. Entries are never deleted: memory and WB's line state only gain
// addresses.
package addrtab

// fib is 2^64 divided by the golden ratio: multiplying by it spreads line
// numbers that differ only in their low or their high bits over the
// product's top bits, which index the table.
const fib = 0x9E3779B97F4A7C15

// minSlots is the slot count of a table's first allocation.
const minSlots = 8

// Table maps addresses to words; an absent address reads as 0. Key 0 marks
// a free slot, so address 0 — a valid address — keeps its word in a field
// of its own. The zero Table is empty and ready to use.
type Table struct {
	slots   []slot
	shift   uint // 64 - log2(len(slots))
	used    int  // occupied slots
	zero    uint64
	hasZero bool
}

type slot struct{ key, val uint64 }

// home returns a's first probe slot: the hash of a's 64-byte line plus a's
// 4-byte word within the line, so the words of a line, which are stored one
// after another, share a run of slots and mostly a cache line.
func (t *Table) home(a uint64) int {
	line := (a >> 6) * fib >> t.shift
	word := (a & 63) >> 2
	return int((line + word) & uint64(len(t.slots)-1))
}

// probe returns a's slot, or the free slot that ends a's probe sequence.
// The table must have slots; at most half of them are used, so the walk
// ends.
func (t *Table) probe(a uint64) *slot {
	mask := len(t.slots) - 1
	for i := t.home(a); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == a || s.key == 0 {
			return s
		}
	}
}

// Read returns a's word, or 0 when a is absent.
func (t *Table) Read(a uint64) uint64 {
	if a == 0 {
		return t.zero
	}
	if t.slots == nil {
		return 0
	}
	return t.probe(a).val
}

// Ref returns a pointer to a's word, inserting a with word 0 when absent.
// The pointer is valid until the next insertion.
func (t *Table) Ref(a uint64) *uint64 {
	if a == 0 {
		t.hasZero = true
		return &t.zero
	}
	if t.slots != nil {
		s := t.probe(a)
		if s.key == a {
			return &s.val
		}
		if 2*(t.used+1) <= len(t.slots) {
			s.key = a
			t.used++
			return &s.val
		}
	}
	t.grow()
	s := t.probe(a)
	s.key = a
	t.used++
	return &s.val
}

// Write sets a's word to v.
func (t *Table) Write(a, v uint64) { *t.Ref(a) = v }

// Max raises a's word to v if v is larger. An absent address counts as 0,
// so Max(a, 0) inserts nothing.
func (t *Table) Max(a, v uint64) {
	if v == 0 {
		return
	}
	if p := t.Ref(a); v > *p {
		*p = v
	}
}

// Each calls fn for every address present and its word, in no particular
// order. fn must not insert into the table.
func (t *Table) Each(fn func(a, v uint64)) {
	if t.hasZero {
		fn(0, t.zero)
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.key != 0 {
			fn(s.key, s.val)
		}
	}
}

// CopyTo makes dst an independent copy of t, reusing dst's slots.
func (t *Table) CopyTo(dst *Table) {
	slots := dst.slots
	*dst = *t
	if t.slots != nil {
		dst.slots = append(slots[:0], t.slots...)
	}
}

// grow doubles the slot count (or makes the first allocation) and rehashes.
func (t *Table) grow() {
	old := t.slots
	n := 2 * len(old)
	if n == 0 {
		n = minSlots
	}
	t.slots = make([]slot, n)
	t.shift = uint(64 - log2(n))
	for _, s := range old {
		if s.key != 0 {
			*t.probe(s.key) = s
		}
	}
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
