package core

import "fmt"

// MPProc is the message-passing baseline's processor state: posted writes
// carry a per-ordering-domain sequence number (domains are destination
// hosts in the simulator, directories in the checker); a barrier's flushing
// reads are counted until answered.
type MPProc struct {
	Seq []uint64

	AtomWait bool // a non-posted atomic's value is outstanding
	// BarIssued and FlushPending drive the flushing-read barrier: the
	// fan-out is issued once, then the barrier re-runs until every
	// destination has answered.
	BarIssued    bool
	FlushPending int
	WC           Combiner
}

// NewMPProc returns processor state for ndomains ordering domains.
func NewMPProc(ndomains int) MPProc { return MPProc{Seq: make([]uint64, ndomains)} }

// CopyTo deep-copies the state into dst, reusing dst's storage. A processor
// that runs another protocol keeps a nil Seq.
func (p *MPProc) CopyTo(dst *MPProc) {
	seq := dst.Seq
	*dst = *p
	dst.Seq = copyTable(seq, p.Seq)
}

// Issue is the MP processor's issue rule: writes are posted into their
// domain's FIFO stream, a release barrier is a flushing read to every
// domain posted to, and the write-combining buffer merges relaxed writes to
// one address until a release write or an atomic.
func (p *MPProc) Issue(op *Op, buf []Msg) ([]Msg, Wait) {
	switch {
	case op.Kind == OpBarrier:
		if !op.Release {
			return buf, Wait{}
		}
		if !p.BarIssued {
			// One MMPFlush per domain posted to (ascending), each covering
			// every write posted there so far.
			n := len(buf)
			for d, seq := range p.Seq {
				if seq > 0 {
					buf = append(buf, Msg{Kind: MMPFlush, Src: op.Src, Dir: d, Seq: seq - 1})
				}
			}
			p.BarIssued, p.FlushPending = true, len(buf)-n
			return buf, Wait{Verdict: Retry, On: WaitFlushes}
		}
		if p.FlushPending > 0 {
			return buf, Wait{Verdict: Refuse, On: WaitFlushes}
		}
		p.BarIssued = false
		return buf, Wait{}
	case op.Kind == OpAtomic:
		// Non-posted: ordered in the same per-domain stream.
		p.WC.Clear()
		p.AtomWait = true
		return append(buf, p.post(op)), Wait{Verdict: Await, On: WaitAtomic}
	case op.Release:
		p.WC.Clear()
	case p.WC.Hit(op.Addr):
		return buf, Wait{}
	default:
		p.WC.Set(op.Addr)
	}
	return append(buf, p.post(op)), Wait{}
}

// post numbers a write in its domain's stream.
func (p *MPProc) post(op *Op) Msg {
	p.Seq[op.Domain]++
	return Msg{Kind: MMPStore, Src: op.Src, Dir: op.Dir, Seq: p.Seq[op.Domain] - 1,
		Addr: op.Addr, Val: op.Val, Size: op.Size, Atomic: op.Kind == OpAtomic, Tag: op.Tag}
}

// Blocked reports whether the wait w still holds.
func (p *MPProc) Blocked(w Wait) bool {
	switch w.On {
	case WaitAtomic:
		return p.AtomWait
	case WaitFlushes:
		return p.FlushPending > 0
	}
	return false
}

// Receive applies a flushing read's answer or an atomic's value.
func (p *MPProc) Receive(m *Msg) {
	switch m.Kind {
	case MMPFlushOK:
		if p.FlushPending == 0 {
			panic("core: spurious MP flush response")
		}
		p.FlushPending--
	case MAtomicResp:
		p.AtomWait = false
	default:
		panic(fmt.Sprintf("core: MP processor got message kind %d", m.Kind))
	}
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
