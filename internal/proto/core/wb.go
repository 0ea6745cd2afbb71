package core

import (
	"fmt"
	"math/bits"

	"cord/internal/addrtab"
)

// WBLineBytes is the write-back granularity, memsys.LineBytes (core imports
// no simulator package; the wb adapter's tests pin the two equal).
const WBLineBytes = 64

// WBLine is one dirty line's write diff, as in TreadMarks-style DSM: the
// words stored since the line's last write-back, by byte offset. Bit i of
// Mask says a word starts at Line+i, and Vals[i] holds it; a word with its
// bit clear is absent, whatever Vals holds. Records are recycled: the flush
// hands each one to its caller, which returns it with WBProc.Recycle once
// the write-back is done with it.
type WBLine struct {
	Line uint64
	Mask uint64
	Vals [WBLineBytes]uint64
	// Tag identifies the write-back in flight (the simulator's message tag).
	Tag uint64

	next *WBLine // the next dirty line up, in WBProc's ascending list
}

// merge applies a store of val at byte offset off: values merge
// monotonically (max), and an absent word counts as 0, so a store of 0
// leaves the line dirty without adding a word.
func (l *WBLine) merge(off, val uint64) {
	if off >= WBLineBytes {
		panic(fmt.Sprintf("core: WB store at offset %d of line %#x", off, l.Line))
	}
	bit := uint64(1) << off
	if l.Mask&bit == 0 {
		if val == 0 {
			return
		}
		l.Mask |= bit
	} else if val <= l.Vals[off] {
		return
	}
	l.Vals[off] = val
}

// Each calls fn for every word of the line in ascending address order.
func (l *WBLine) Each(fn func(addr, val uint64)) {
	for m := l.Mask; m != 0; m &= m - 1 {
		off := bits.TrailingZeros64(m)
		fn(l.Line+uint64(off), l.Vals[off])
	}
}

// Line table words: the low byte is the line's ownership state, and the
// bits above it hold the dirty record's position in WBProc.recs plus one
// (0 while the line is clean).
const (
	wbFetching  = 1
	wbOwned     = 2
	wbStateMask = 0xff
	wbRecShift  = 8
)

// WBProc is the write-back baseline's processor-side protocol state:
// which lines are owned or being fetched, the dirty data awaiting
// write-back, and the flush discipline that source-orders a release
// (dirty lines are written back and acknowledged before the flag store
// issues — the §4.4 comparison point for CORD).
//
// The zero WBProc is empty and ready to use.
type WBProc struct {
	// lines maps each line the processor has touched to its table word.
	lines addrtab.Table
	// recs are the dirty lines' records in the order they became dirty (the
	// line table indexes them); head starts the same records linked in
	// ascending line order, and last is the record linked most recently.
	recs       []*WBLine
	head, last *WBLine
	// spare are recycled records.
	spare []*WBLine

	MSHR    int // outstanding ownership fetches
	Pending int // outstanding write-back / flag acks
}

// NewWBProc returns empty write-back processor state.
func NewWBProc() WBProc { return WBProc{} }

// CopyTo deep-copies the state into dst, reusing dst's line table and its
// dirty records (dst's records must be dst's own, not handed out by a
// flush).
func (p *WBProc) CopyTo(dst *WBProc) {
	p.lines.CopyTo(&dst.lines)
	dst.MSHR, dst.Pending = p.MSHR, p.Pending
	dst.spare = append(dst.spare, dst.recs...)
	clear(dst.recs)
	dst.recs = dst.recs[:0]
	dst.head, dst.last = nil, nil
	for _, r := range p.recs {
		var nr *WBLine
		if n := len(dst.spare); n > 0 {
			nr, dst.spare = dst.spare[n-1], dst.spare[:n-1]
		} else {
			nr = new(WBLine)
		}
		*nr = *r
		dst.recs = append(dst.recs, nr)
	}
	tail := &dst.head
	for r := p.head; r != nil; r = r.next {
		nr := dst.recs[p.lines.Read(r.Line)>>wbRecShift-1]
		*tail, tail = nr, &nr.next
	}
	*tail = nil
}

// WBStoreVerdict is StoreAdmit's decision for a relaxed store.
type WBStoreVerdict uint8

const (
	WBHit      WBStoreVerdict = iota // line owned: write the local copy
	WBMiss                           // fetch ownership, write under the miss
	WBMSHRFull                       // all miss registers busy: stall
)

// StoreAdmit classifies a relaxed store to line.
func (p *WBProc) StoreAdmit(mshrs int, line uint64) WBStoreVerdict {
	if p.lines.Read(line)&wbStateMask != 0 {
		return WBHit
	}
	if p.MSHR >= mshrs {
		return WBMSHRFull
	}
	return WBMiss
}

// Owned reports whether the processor owns line.
func (p *WBProc) Owned(line uint64) bool { return p.lines.Read(line)&wbStateMask == wbOwned }

// Fetching reports whether an ownership fetch for line is outstanding.
func (p *WBProc) Fetching(line uint64) bool {
	return p.lines.Read(line)&wbStateMask == wbFetching
}

// Dirty reports whether any line awaits write-back.
func (p *WBProc) Dirty() bool { return len(p.recs) > 0 }

// RecordDirty merges a store of val at addr into line's dirty data. Values
// merge monotonically (max): the workload's memory cells are flags and
// counters that only grow, so the largest value is the latest (DESIGN.md
// §9). addr must lie within the line's WBLineBytes.
func (p *WBProc) RecordDirty(line, addr, val uint64) {
	p.record(line).merge(addr-line, val)
}

// record returns line's dirty record, starting one if the line is clean.
func (p *WBProc) record(line uint64) *WBLine {
	w := p.lines.Ref(line)
	if i := *w >> wbRecShift; i != 0 {
		return p.recs[i-1]
	}
	r := p.newRecord(line)
	*w |= uint64(len(p.recs)) << wbRecShift
	return r
}

// newRecord starts line's dirty record and links it into the ascending
// list. Stores come in ascending runs (a buffer at a time), so the record
// usually goes right after the last one linked; a run that starts lower
// walks from the head.
func (p *WBProc) newRecord(line uint64) *WBLine {
	var r *WBLine
	if n := len(p.spare); n > 0 {
		r, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		r = new(WBLine)
	}
	r.Line, r.Mask, r.Tag = line, 0, 0
	link := &p.head
	if p.last != nil && p.last.Line < line {
		link = &p.last.next
	}
	for *link != nil && (*link).Line < line {
		link = &(*link).next
	}
	r.next, *link = *link, r
	p.last = r
	p.recs = append(p.recs, r)
	return r
}

// Recycle returns a flushed record for reuse once its write-back is done.
func (p *WBProc) Recycle(r *WBLine) { p.spare = append(p.spare, r) }

// BeginFetch starts an ownership fetch for line (caller checked StoreAdmit).
func (p *WBProc) BeginFetch(line uint64) {
	w := p.lines.Ref(line)
	*w = *w&^wbStateMask | wbFetching
	p.MSHR++
}

// Fill completes an ownership fetch.
func (p *WBProc) Fill(line uint64) {
	w := p.lines.Ref(line)
	if *w&wbStateMask != wbFetching {
		panic(fmt.Sprintf("core: WB fill for line %#x not being fetched", line))
	}
	*w = *w&^wbStateMask | wbOwned
	p.MSHR--
}

// CanFlush reports whether a flush may begin: all fetches have filled, so
// every dirty line's data is complete.
func (p *WBProc) CanFlush() bool { return p.MSHR == 0 }

// FlushLines drains the dirty lines in ascending line order, handing each
// record to emit; each write-back expects an acknowledgment. Ownership is
// retained (the flush is a data write-back, not an eviction). The records
// now belong to the caller, who may Recycle them.
func (p *WBProc) FlushLines(emit func(*WBLine)) {
	r := p.head
	p.head, p.last = nil, nil
	clear(p.recs)
	p.recs = p.recs[:0]
	for r != nil {
		next := r.next
		r.next = nil
		*p.lines.Ref(r.Line) &= wbStateMask
		p.Pending++
		emit(r)
		r = next
	}
}

// EachDirtyWord calls fn for every dirty word, by ascending address.
func (p *WBProc) EachDirtyWord(fn func(addr, val uint64)) {
	for r := p.head; r != nil; r = r.next {
		r.Each(fn)
	}
}

// Relabel returns a copy of the state with every address mapped through
// addr and every dirty value through val (the model checker's symmetry
// permutations). A word keeps its mapped value even where max-merging would
// drop it.
func (p *WBProc) Relabel(addr, val func(uint64) uint64) WBProc {
	q := WBProc{MSHR: p.MSHR, Pending: p.Pending}
	p.lines.Each(func(l, w uint64) {
		if st := w & wbStateMask; st != 0 {
			*q.lines.Ref(addr(l)) |= st
		}
	})
	for r := p.head; r != nil; r = r.next {
		line := addr(r.Line)
		nr := q.record(line)
		r.Each(func(a, v uint64) {
			off := addr(a) - line
			if off >= WBLineBytes {
				panic(fmt.Sprintf("core: WB relabel moves %#x off line %#x", addr(a), line))
			}
			nr.Mask |= 1 << off
			nr.Vals[off] = val(v)
		})
	}
	return q
}

// NoteFlag records an issued flag/release store awaiting acknowledgment.
func (p *WBProc) NoteFlag() { p.Pending++ }

// NoteAck retires one write-back or flag acknowledgment.
func (p *WBProc) NoteAck() {
	if p.Pending == 0 {
		panic("core: WB ack with nothing outstanding")
	}
	p.Pending--
}

// Drained reports whether all write-backs and flag stores are acknowledged.
func (p *WBProc) Drained() bool { return p.Pending == 0 }
