package core

import "fmt"

// MPProc is the message-passing baseline's processor state: posted writes
// carry a per-ordering-domain sequence number (domains are destination
// hosts in the simulator, directories in the checker); nothing is tracked
// beyond the next number per domain.
type MPProc struct {
	Seq []uint64
}

// NewMPProc returns processor state for ndomains ordering domains.
func NewMPProc(ndomains int) MPProc { return MPProc{Seq: make([]uint64, ndomains)} }

// CopyTo deep-copies the state into dst, reusing dst's storage. A processor
// that runs another protocol keeps a nil Seq.
func (p *MPProc) CopyTo(dst *MPProc) { dst.Seq = copyTable(dst.Seq, p.Seq) }

// NextSeq assigns the sequence number for the next posted write to domain d.
func (p *MPProc) NextSeq(d int) uint64 {
	s := p.Seq[d]
	p.Seq[d]++
	return s
}

// FlushTargets appends one MMPFlush per domain this processor has posted
// writes to (ascending domain order), each covering every write posted so
// far. A barrier completes when all of them are answered.
func (p *MPProc) FlushTargets(src int, buf []Msg) []Msg {
	for d, n := range p.Seq {
		if n > 0 {
			buf = append(buf, Msg{Kind: MMPFlush, Src: src, Dir: d, Seq: n - 1})
		}
	}
	return buf
}

// MPOrderer is one ordering domain's FIFO ordering point: per-source
// next-expected sequence numbers, writes that arrived out of order, and
// flushing reads parked until their covered writes commit.
type MPOrderer struct {
	Next    []uint64
	Pending []Msg
	Flushes []Msg
}

// NewMPOrderer returns an ordering point for nprocs sources.
func NewMPOrderer(nprocs int) MPOrderer { return MPOrderer{Next: make([]uint64, nprocs)} }

// CopyTo deep-copies the state into dst, reusing dst's storage.
func (o *MPOrderer) CopyTo(dst *MPOrderer) {
	dst.Next = copyTable(dst.Next, o.Next)
	dst.Pending = append(dst.Pending[:0], o.Pending...)
	dst.Flushes = append(dst.Flushes[:0], o.Flushes...)
}

// Submit hands an arrived posted write to the ordering point. commit is
// invoked, in sequence order, for every write that becomes committable;
// flushOK for every parked flushing read those commits satisfy. inOrder
// reports whether the write arrived at its expected sequence number (an
// out-of-order arrival parks and is a retry/depth observability event).
func (o *MPOrderer) Submit(m Msg, commit func(Msg), flushOK func(Msg)) (inOrder bool) {
	for _, q := range o.Pending {
		if q.Src == m.Src && q.Seq == m.Seq {
			panic(fmt.Sprintf("core: MP duplicate seq %d from proc %d", m.Seq, m.Src))
		}
	}
	inOrder = m.Seq == o.Next[m.Src]
	o.Pending = append(o.Pending, m)
	o.drain(m.Src, commit)
	o.serveFlushes(m.Src, flushOK)
	return inOrder
}

// drain commits consecutively-numbered pending writes from src.
func (o *MPOrderer) drain(src int, commit func(Msg)) {
	for {
		found := false
		for i := range o.Pending {
			if o.Pending[i].Src == src && o.Pending[i].Seq == o.Next[src] {
				m := o.Pending[i]
				o.Pending = append(o.Pending[:i], o.Pending[i+1:]...)
				o.Next[src]++
				commit(m)
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
}

// Flush answers a flushing read: ready once every posted write from the
// source up to and including Seq has committed; otherwise the read parks
// until Submit's drain catches up. A read must park even when no write has
// committed yet (Next == 0): answering early would let a barrier overtake
// the very writes it fences.
func (o *MPOrderer) Flush(f Msg) (ready bool) {
	if o.Next[f.Src] > f.Seq {
		return true
	}
	o.Flushes = append(o.Flushes, f)
	return false
}

// serveFlushes answers parked flushing reads now covered by src's commits.
func (o *MPOrderer) serveFlushes(src int, flushOK func(Msg)) {
	keep := o.Flushes[:0]
	for _, f := range o.Flushes {
		if f.Src == src && o.Next[src] > f.Seq {
			flushOK(f)
		} else {
			keep = append(keep, f)
		}
	}
	o.Flushes = keep
}

// PendingFor counts parked writes from src (orderer-depth observability).
func (o *MPOrderer) PendingFor(src int) int {
	n := 0
	for _, m := range o.Pending {
		if m.Src == src {
			n++
		}
	}
	return n
}
