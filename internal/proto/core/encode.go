package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// This file gives every protocol state struct a compact, canonical binary
// encoding for the model checker's visited set. The properties the checker
// relies on (DESIGN.md §10):
//
//   - Injective: two logically different states never encode to the same
//     bytes. Every variable-length section is length-prefixed and the field
//     layout is fixed, so the byte stream parses unambiguously.
//   - Canonical: two logically equal states always encode to the same bytes.
//     Multisets (message sets, directory PE tables, write-back line sets)
//     are sorted into a canonical order before emission, so the arrival
//     interleaving that built the state leaves no imprint.
//   - Allocation-free on the hot paths: every Append* method appends to a
//     caller-owned buffer and returns it, letting the checker reuse one
//     scratch buffer per worker.
//
// The encoding replaces the old fmt.Fprintf string keys, which were both ~6x
// larger and an order of magnitude slower to build.

// MsgEncSize is the fixed size of one encoded Msg record. Fixed-size records
// let a message multiset be canonicalized by sorting byte chunks in place,
// without materializing per-message strings.
const MsgEncSize = 81

// AppendBinary appends the fixed-size encoding of m.
func (m *Msg) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(m.Kind))
	buf = appendI32(buf, int32(m.Src))
	buf = appendI32(buf, int32(m.Dir))
	buf = appendI32(buf, int32(m.Dst))
	buf = binary.BigEndian.AppendUint64(buf, m.Addr)
	buf = binary.BigEndian.AppendUint64(buf, m.Val)
	buf = appendI32(buf, int32(m.Size))
	buf = binary.BigEndian.AppendUint64(buf, m.Ep)
	buf = binary.BigEndian.AppendUint64(buf, m.Cnt)
	buf = appendBool(buf, m.HasPrev)
	buf = binary.BigEndian.AppendUint64(buf, m.PrevEp)
	buf = appendI32(buf, int32(m.NotiCnt))
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = appendBool(buf, m.Barrier)
	buf = appendBool(buf, m.Atomic)
	buf = appendBool(buf, m.Release)
	buf = binary.BigEndian.AppendUint64(buf, m.Tag)
	return buf
}

// AppendMsgSetBinary appends a canonical encoding of a message multiset:
// a count followed by the fixed-size records in sorted byte order. The
// slice itself is not reordered.
func AppendMsgSetBinary(buf []byte, ms []Msg) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ms)))
	start := len(buf)
	for i := range ms {
		buf = ms[i].AppendBinary(buf)
	}
	sortChunks(buf[start:], MsgEncSize)
	return buf
}

// peEncSize is the fixed size of one encoded PE record.
const peEncSize = 20

// AppendPETableBinary appends a canonical encoding of a directory PE table.
// Entries are unique per (Proc, Ep) — the directory rules merge duplicates —
// so sorting the fixed-size records canonicalizes the table without ties.
func AppendPETableBinary(buf []byte, tab []PE) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tab)))
	start := len(buf)
	for i := range tab {
		buf = appendI32(buf, int32(tab[i].Proc))
		buf = binary.BigEndian.AppendUint64(buf, tab[i].Ep)
		buf = binary.BigEndian.AppendUint64(buf, tab[i].N)
	}
	sortChunks(buf[start:], peEncSize)
	return buf
}

// AppendBinary appends the CORD processor state. CntLive is derived from Cnt
// and omitted.
func (p *CordProc) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.FlushWait))
	buf = appendBool(buf, p.AtomWait)
	buf = appendI32(buf, int32(p.WBPending))
	buf = p.WC.appendBinary(buf)
	buf = binary.BigEndian.AppendUint64(buf, p.Ep)
	buf = binary.BigEndian.AppendUint64(buf, p.SeqIssued)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Cnt)))
	for _, c := range p.Cnt {
		buf = binary.BigEndian.AppendUint64(buf, c)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Unacked)))
	for _, r := range p.Unacked {
		buf = binary.BigEndian.AppendUint64(buf, r.Ep)
		buf = appendI32(buf, int32(r.Outstanding))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.ByDir)))
	for _, eps := range p.ByDir {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(eps)))
		for _, ep := range eps {
			buf = binary.BigEndian.AppendUint64(buf, ep)
		}
	}
	return buf
}

// AppendBinary appends the CORD directory state.
func (d *CordDir) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.Largest)))
	for _, l := range d.Largest {
		buf = binary.BigEndian.AppendUint64(buf, uint64(l))
	}
	buf = AppendPETableBinary(buf, d.Cnt)
	buf = AppendPETableBinary(buf, d.Noti)
	buf = AppendMsgSetBinary(buf, d.PendingRel)
	buf = AppendMsgSetBinary(buf, d.PendingReq)
	return buf
}

// AppendBinary appends the SO processor state.
func (p *SOProc) AppendBinary(buf []byte) []byte {
	buf = appendI32(buf, int32(p.PendingAcks))
	buf = appendBool(buf, p.AtomWait)
	return p.WC.appendBinary(buf)
}

// AppendBinary appends the MP processor state.
func (p *MPProc) AppendBinary(buf []byte) []byte {
	buf = appendBool(buf, p.AtomWait)
	buf = appendBool(buf, p.BarIssued)
	buf = appendI32(buf, int32(p.FlushPending))
	buf = p.WC.appendBinary(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Seq)))
	for _, s := range p.Seq {
		buf = binary.BigEndian.AppendUint64(buf, s)
	}
	return buf
}

// AppendBinary appends the MP ordering-point state.
func (o *MPOrderer) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(o.Next)))
	for _, n := range o.Next {
		buf = binary.BigEndian.AppendUint64(buf, n)
	}
	buf = AppendMsgSetBinary(buf, o.Pending)
	buf = AppendMsgSetBinary(buf, o.Flushes)
	return buf
}

// AppendBinary appends the write-back processor state: the owned and the
// fetching lines as ascending sets, then the dirty lines ascending, each with
// its (addr, val) words ascending.
func (p *WBProc) AppendBinary(buf []byte) []byte {
	buf = appendBool(buf, p.AtomWait)
	buf = appendI32(buf, int32(p.MSHR))
	buf = appendI32(buf, int32(p.Pending))
	buf = p.appendLineSet(buf, wbOwned)
	buf = p.appendLineSet(buf, wbFetching)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.recs)))
	for r := p.head; r != nil; r = r.next {
		buf = binary.BigEndian.AppendUint64(buf, r.Line)
		buf = binary.BigEndian.AppendUint32(buf, uint32(bits.OnesCount64(r.Mask)))
		r.Each(func(a, v uint64) {
			buf = binary.BigEndian.AppendUint64(buf, a)
			buf = binary.BigEndian.AppendUint64(buf, v)
		})
	}
	return buf
}

// appendBinary appends the write-combining buffer.
func (c *Combiner) appendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, c.Addr)
	return appendBool(buf, c.Valid)
}

// appendLineSet appends the lines in ownership state st: a count, then the
// lines ascending. It selects each next line by a scan of the table, which
// allocates nothing; WB states hold a handful of lines.
func (p *WBProc) appendLineSet(buf []byte, st uint64) []byte {
	n := 0
	p.lines.Each(func(_, w uint64) {
		if w&wbStateMask == st {
			n++
		}
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	var prev uint64
	for i := 0; i < n; i++ {
		next, found := uint64(0), false
		p.lines.Each(func(l, w uint64) {
			if w&wbStateMask == st && (i == 0 || l > prev) && (!found || l < next) {
				next, found = l, true
			}
		})
		buf = binary.BigEndian.AppendUint64(buf, next)
		prev = next
	}
	return buf
}

// FNV-1a 64-bit: a fixed, dependency-free hash so fingerprints are stable
// across runs, worker counts, and processes (unlike hash/maphash's
// per-process seed), which keeps collision audits reproducible.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 fingerprints an encoded state with FNV-1a.
func Hash64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// --- helpers ---

func appendI32(buf []byte, v int32) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(v))
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// sortChunks sorts fixed-size byte records in place (insertion sort: the
// multisets hold at most a few dozen messages).
func sortChunks(recs []byte, size int) {
	n := len(recs) / size
	if n < 2 {
		return
	}
	var tmp [MsgEncSize]byte
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a := recs[(j-1)*size : j*size]
			b := recs[j*size : (j+1)*size]
			if bytes.Compare(a, b) <= 0 {
				break
			}
			copy(tmp[:size], a)
			copy(a, b)
			copy(b, tmp[:size])
		}
	}
}
