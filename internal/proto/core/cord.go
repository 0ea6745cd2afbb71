package core

import "fmt"

// CordParams are the protocol parameters the CORD rules consult, already
// resolved to concrete values (counter saturation points, epoch window,
// table capacities). The simulator derives them from cord.Config; the model
// checker from litmus.Config. Variants (ablations) mutate these — see
// variants.go.
type CordParams struct {
	CntMax      uint64 // per-directory store-counter saturation value
	EpochWindow uint64 // max distance between oldest unacked epoch and current
	SeqMode     bool   // SEQ-N baseline: one monolithic sequence counter

	ProcUnackedCap    int // distinct unacked epochs a processor may hold
	ProcCntCap        int // live per-directory store counters at a processor
	DirCntCapPerProc  int // per-(proc) store-counter entries at a directory
	DirNotiCapPerProc int // per-(proc) notification entries at a directory

	// NoNotifications ablates the inter-directory notification mechanism
	// (§6.4): a cross-directory release first drains every other directory
	// with an empty-release barrier instead of sending ReqNotify.
	NoNotifications bool
}

// EpochRec tracks one unacknowledged release epoch at a processor.
// Outstanding counts the acks still expected for the epoch: 1 for a normal
// release, the fan-out width for a barrier.
type EpochRec struct {
	Ep          uint64
	Outstanding int
}

// CordProc is the processor-side CORD state (paper Alg. 1): the current
// epoch, per-directory relaxed-store counters for that epoch, and the
// bounded table of unacknowledged release epochs (§4.3).
type CordProc struct {
	Ep        uint64
	Cnt       []uint64   // relaxed stores sent to each directory this epoch
	CntLive   int        // number of nonzero Cnt entries (counter-table occupancy)
	SeqIssued uint64     // SEQ-N: stores since the last release, across all dirs
	Unacked   []EpochRec // unacked epochs, ascending
	ByDir     [][]uint64 // unacked epochs per destination directory, ascending

	// FlushWait, when >= 0, is the epoch of an injected overflow-flush
	// release (§4.3) the processor stalls on before re-running the op.
	FlushWait int64
	AtomWait  bool // a far atomic's value is outstanding
	WBPending int  // unacknowledged write-back stores (source-ordered, §4.4)
	WC        Combiner
}

// NewCordProc returns processor state sized for ndirs directories.
func NewCordProc(ndirs int) CordProc {
	return CordProc{Cnt: make([]uint64, ndirs), ByDir: make([][]uint64, ndirs), FlushWait: -1}
}

// CopyTo deep-copies the state into dst, reusing dst's storage (the model
// checker refills recycled worlds in place).
func (p *CordProc) CopyTo(dst *CordProc) {
	cnt, unacked, byDir := dst.Cnt, dst.Unacked, dst.ByDir
	*dst = *p
	dst.Cnt = copyTable(cnt, p.Cnt)
	dst.Unacked = append(unacked[:0], p.Unacked...)
	dst.ByDir = nil
	if p.ByDir != nil {
		if len(byDir) != len(p.ByDir) {
			byDir = make([][]uint64, len(p.ByDir))
		}
		for i, eps := range p.ByDir {
			byDir[i] = append(byDir[i][:0], eps...)
		}
		dst.ByDir = byDir
	}
}

// Provisioned reports whether a release bound for directory d can be issued
// now: the unacked-epoch table has a free slot, the epoch window has room,
// and directory d's per-processor tables can absorb one more entry (§4.3).
func (p *CordProc) Provisioned(cp CordParams, d int) bool {
	if len(p.Unacked) >= cp.ProcUnackedCap {
		return false
	}
	if p.windowBlocked(cp) {
		return false
	}
	if len(p.ByDir[d]) >= cp.DirCntCapPerProc || len(p.ByDir[d]) >= cp.DirNotiCapPerProc {
		return false
	}
	return true
}

// windowBlocked reports whether the epoch in-flight window is exhausted:
// the oldest unacknowledged epoch is EpochWindow behind the current one, so
// a new epoch's number would be ambiguous at the configured bit-width.
func (p *CordProc) windowBlocked(cp CordParams) bool {
	return len(p.Unacked) > 0 && p.Ep-p.Unacked[0].Ep >= cp.EpochWindow
}

// RelaxedAdmit decides whether a relaxed store to directory d can be counted
// in the current epoch (WaitNone), or whether the processor must first flush
// (issue an empty release) to open a new epoch because the store counter (or
// SEQ-N sequence) would saturate (WaitOverflow) or no per-directory counter
// slot is free (WaitCntTable).
func (p *CordProc) RelaxedAdmit(cp CordParams, d int) WaitOn {
	if p.Cnt[d] >= cp.CntMax || (cp.SeqMode && p.SeqIssued >= cp.CntMax) {
		return WaitOverflow
	}
	if p.Cnt[d] == 0 && p.CntLive >= cp.ProcCntCap {
		return WaitCntTable
	}
	return WaitNone
}

// NoteRelaxed counts one admitted relaxed store toward directory d in the
// current epoch and returns the epoch.
func (p *CordProc) NoteRelaxed(d int) uint64 {
	if p.Cnt[d] == 0 {
		p.CntLive++
	}
	p.Cnt[d]++
	p.SeqIssued++
	return p.Ep
}

// Dirty reports whether any relaxed stores are uncounted-for in the current
// epoch (some directory's counter is nonzero).
func (p *CordProc) Dirty() bool { return p.CntLive > 0 }

// dirtyOutside reports whether the current epoch holds relaxed stores bound
// for a directory other than d.
func (p *CordProc) dirtyOutside(d int) bool {
	for i, n := range p.Cnt {
		if i != d && n > 0 {
			return true
		}
	}
	return false
}

// unackedOutside reports whether an unacknowledged release is pending at a
// directory other than d.
func (p *CordProc) unackedOutside(d int) bool {
	for i, eps := range p.ByDir {
		if i != d && len(eps) > 0 {
			return true
		}
	}
	return false
}

// epochLive reports whether epoch ep still awaits acknowledgment.
func (p *CordProc) epochLive(ep uint64) bool {
	for _, r := range p.Unacked {
		if r.Ep == ep {
			return true
		}
	}
	return false
}

// lastUnackedFor returns the most recent unacked release epoch bound for d,
// which a new message to d names as its predecessor (point-to-point order).
func (p *CordProc) lastUnackedFor(d int) (bool, uint64) {
	eps := p.ByDir[d]
	if len(eps) == 0 {
		return false, 0
	}
	return true, eps[len(eps)-1]
}

// IssueRelease emits the ReqNotify fan-out (ascending directory order, one
// per other directory holding this epoch's relaxed stores or unacked
// releases) followed by the release bound for directory d, records the new
// unacked epoch, and opens the next epoch. rel supplies the payload fields
// (Src/Addr/Val/Size/Barrier/Atomic/Tag); the ordering fields are filled
// here. The caller must have checked Provisioned.
func (p *CordProc) IssueRelease(d int, rel Msg, buf []Msg) []Msg {
	ep := p.Ep
	pend := 0
	for dir := range p.Cnt {
		if dir == d || (p.Cnt[dir] == 0 && len(p.ByDir[dir]) == 0) {
			continue
		}
		m := Msg{Kind: MReqNotify, Src: rel.Src, Dir: dir, Dst: d,
			Ep: ep, Cnt: p.Cnt[dir]}
		m.HasPrev, m.PrevEp = p.lastUnackedFor(dir)
		buf = append(buf, m)
		pend++
	}
	rel.Kind = MRelease
	rel.Dir = d
	rel.Ep = ep
	rel.Cnt = p.Cnt[d]
	rel.NotiCnt = pend
	rel.HasPrev, rel.PrevEp = p.lastUnackedFor(d)
	buf = append(buf, rel)
	p.Unacked = append(p.Unacked, EpochRec{Ep: ep, Outstanding: 1})
	p.ByDir[d] = append(p.ByDir[d], ep)
	p.advanceEpoch()
	return buf
}

// IssueBarrier broadcasts an empty release to every directory holding the
// current epoch's relaxed stores, except directory `except` when >= 0 (the
// NoNotifications cross-directory drain, which keeps the current epoch
// open). A full barrier (except < 0) advances the epoch. If some target
// directory is not provisioned for one more release, nothing is mutated and
// ok is false with badDir naming the first offender (ascending order, so
// the retry blocks on the same directory the simulator would).
func (p *CordProc) IssueBarrier(cp CordParams, except, src int, buf []Msg) (out []Msg, ok bool, badDir int) {
	for d, n := range p.Cnt {
		if n == 0 || d == except {
			continue
		}
		if !p.Provisioned(cp, d) {
			return buf, false, d
		}
	}
	ep := p.Ep
	n := 0
	for d, c := range p.Cnt {
		if c == 0 || d == except {
			continue
		}
		m := Msg{Kind: MRelease, Src: src, Dir: d, Ep: ep, Cnt: c, Barrier: true}
		m.HasPrev, m.PrevEp = p.lastUnackedFor(d)
		buf = append(buf, m)
		p.ByDir[d] = append(p.ByDir[d], ep)
		n++
	}
	if n > 0 {
		p.Unacked = append(p.Unacked, EpochRec{Ep: ep, Outstanding: n})
	}
	if except >= 0 {
		// Drain mode: the epoch stays open for the release that follows;
		// only the drained directories' counters retire.
		for d := range p.Cnt {
			if d != except && p.Cnt[d] > 0 {
				p.Cnt[d] = 0
				p.CntLive--
			}
		}
	} else if n > 0 {
		p.advanceEpoch()
	}
	return buf, true, -1
}

// advanceEpoch opens a fresh epoch: all per-directory counters reset.
func (p *CordProc) advanceEpoch() {
	p.Ep++
	for i := range p.Cnt {
		p.Cnt[i] = 0
	}
	p.CntLive = 0
	p.SeqIssued = 0
}

// AckRelease retires one acknowledgment for epoch ep. When the epoch's last
// ack arrives (done), the epoch leaves the unacked table and the heads of
// every per-directory chain are pruned: releases to one directory commit in
// program order, so retired epochs always leave a chain from the front.
func (p *CordProc) AckRelease(ep uint64) (done bool) {
	i := -1
	for j := range p.Unacked {
		if p.Unacked[j].Ep == ep {
			i = j
			break
		}
	}
	if i < 0 {
		panic(fmt.Sprintf("core: ack for unknown epoch %d", ep))
	}
	p.Unacked[i].Outstanding--
	if p.Unacked[i].Outstanding > 0 {
		return false
	}
	p.Unacked = append(p.Unacked[:i], p.Unacked[i+1:]...)
	for d, eps := range p.ByDir {
		n := 0
		for n < len(eps) && !p.epochLive(eps[n]) {
			n++
		}
		if n > 0 {
			// Shift the chain down in place so appends reuse its array.
			p.ByDir[d] = append(eps[:0], eps[n:]...)
		}
	}
	return true
}

// Issue is the CORD processor's issue rule: Alg. 1's relaxed and release
// paths, §4.3's provisioning stalls and overflow flushes, §4.4's barriers and
// source-ordered write-back stores, and the write-combining buffer, which a
// relaxed store opens and a release, an atomic, a write-back store or a
// barrier that sends closes.
func (p *CordProc) Issue(cp CordParams, op *Op, buf []Msg) ([]Msg, Wait) {
	switch op.Kind {
	case OpBarrier:
		if !op.Release {
			return buf, Wait{}
		}
		return p.barrier(cp, op.Src, buf)
	case OpWriteBack:
		if op.Release {
			// A release write-back cannot be source-ordered against
			// directory-ordered stores: fence them with a barrier first,
			// then wait out the earlier write-backs.
			if p.Dirty() || len(p.Unacked) > 0 {
				return p.barrier(cp, op.Src, buf)
			}
			if p.WBPending > 0 {
				return buf, Wait{Verdict: Refuse, On: WaitAcks}
			}
		}
		p.WBPending++
		p.WC.Clear()
		return append(buf, Msg{Kind: MWBData, Src: op.Src, Dir: op.Dir,
			Addr: op.Addr, Val: op.Val, Size: op.Size}), Wait{}
	}
	atomic := op.Kind == OpAtomic
	d := op.Dir
	if op.Release {
		if !p.Provisioned(cp, d) {
			return buf, p.unprovisioned(cp, d)
		}
		if cp.NoNotifications && (p.dirtyOutside(d) || p.unackedOutside(d)) {
			// Ablated §4.2: drain the other directories with empty releases
			// (sharing the open epoch) and wait for their acks first.
			out, ok, bad := p.IssueBarrier(cp, d, op.Src, buf)
			if !ok {
				return buf, p.unprovisioned(cp, bad)
			}
			v := Refuse
			if len(out) > len(buf) {
				v = Retry
			}
			return out, Wait{Verdict: v, On: WaitDrain, Dir: d}
		}
		buf = p.IssueRelease(d, Msg{Src: op.Src, Addr: op.Addr, Val: op.Val,
			Size: op.Size, Atomic: atomic, Tag: op.Tag}, buf)
		p.WC.Clear()
		if atomic {
			p.AtomWait = true
			return buf, Wait{Verdict: Await, On: WaitAtomic}
		}
		return buf, Wait{}
	}
	if !atomic && p.WC.Hit(op.Addr) {
		return buf, Wait{}
	}
	if on := p.RelaxedAdmit(cp, d); on != WaitNone {
		// Flush: an empty release to d through the full release path opens
		// a new epoch; the op re-runs once it is acknowledged.
		if !p.Provisioned(cp, d) {
			return buf, p.unprovisioned(cp, d)
		}
		p.FlushWait = int64(p.Ep)
		buf = p.IssueRelease(d, Msg{Src: op.Src, Barrier: true}, buf)
		p.WC.Clear()
		return buf, Wait{Verdict: Retry, On: on}
	}
	buf = append(buf, Msg{Kind: MRelaxed, Src: op.Src, Dir: d, Ep: p.NoteRelaxed(d),
		Addr: op.Addr, Val: op.Val, Size: op.Size, Atomic: atomic, Tag: op.Tag})
	if atomic {
		p.WC.Clear()
		p.AtomWait = true
		return buf, Wait{Verdict: Await, On: WaitAtomic}
	}
	p.WC.Set(op.Addr)
	return buf, Wait{}
}

// barrier broadcasts empty releases to the dirty directories and re-runs
// until every epoch is acknowledged (§4.4).
func (p *CordProc) barrier(cp CordParams, src int, buf []Msg) ([]Msg, Wait) {
	if p.Dirty() {
		out, ok, bad := p.IssueBarrier(cp, -1, src, buf)
		if !ok {
			return buf, p.unprovisioned(cp, bad)
		}
		p.WC.Clear()
		return out, Wait{Verdict: Retry, On: WaitEpochs}
	}
	if len(p.Unacked) > 0 {
		return buf, Wait{Verdict: Refuse, On: WaitEpochs}
	}
	return buf, Wait{}
}

// unprovisioned refuses an op until directory d is provisioned for one more
// release, naming whether the epoch window or a table is what is full.
func (p *CordProc) unprovisioned(cp CordParams, d int) Wait {
	on := WaitTables
	if p.windowBlocked(cp) {
		on = WaitWindow
	}
	return Wait{Verdict: Refuse, On: on, Dir: d}
}

// Blocked reports whether the wait w still holds.
func (p *CordProc) Blocked(cp CordParams, w Wait) bool {
	switch w.On {
	case WaitAtomic:
		return p.AtomWait
	case WaitAcks:
		return p.WBPending > 0
	case WaitEpochs:
		return len(p.Unacked) > 0
	case WaitDrain:
		return p.unackedOutside(w.Dir)
	case WaitWindow, WaitTables:
		return !p.Provisioned(cp, w.Dir)
	case WaitOverflow, WaitCntTable:
		return p.FlushWait >= 0
	}
	return false
}

// Waiting reports whether an issued wait (an atomic's value, an overflow
// flush's ack) holds the processor: no op, load included, may issue.
func (p *CordProc) Waiting() bool { return p.AtomWait || p.FlushWait >= 0 }

// Receive applies a reply to the processor: a release acknowledgment
// (retired reports that its epoch left the unacked table), an atomic's value,
// or a write-back acknowledgment. An acknowledgment with Atomic set answers a
// release atomic too.
func (p *CordProc) Receive(m *Msg) (retired bool) {
	switch m.Kind {
	case MAck:
		retired = p.AckRelease(m.Ep)
		if retired && p.FlushWait == int64(m.Ep) {
			p.FlushWait = -1
		}
		if m.Atomic {
			p.AtomWait = false
		}
	case MAtomicResp:
		p.AtomWait = false
	case MWBAck:
		if p.WBPending == 0 {
			panic("core: spurious CORD write-back ack")
		}
		p.WBPending--
	default:
		panic(fmt.Sprintf("core: CORD processor got message kind %d", m.Kind))
	}
	return retired
}

// PE is one (processor, epoch) entry in a directory-side table.
type PE struct {
	Proc int
	Ep   uint64
	N    uint64
}

// CordDir is the directory-side CORD state (paper Alg. 2): per-(proc,epoch)
// committed relaxed-store counters and received-notification counters, the
// largest committed release epoch per processor, and the recycle buffers
// holding releases and notification requests that are not yet eligible.
type CordDir struct {
	Cnt        []PE    // committed relaxed stores per (proc, epoch)
	Noti       []PE    // received notifications per (proc, epoch)
	Largest    []int64 // largest committed release epoch per proc; -1 none
	PendingRel []Msg
	PendingReq []Msg
}

// NewCordDir returns directory state sized for nprocs processors.
func NewCordDir(nprocs int) CordDir {
	l := make([]int64, nprocs)
	for i := range l {
		l[i] = -1
	}
	return CordDir{Largest: l}
}

// CopyTo deep-copies the state into dst, reusing dst's storage.
func (d *CordDir) CopyTo(dst *CordDir) {
	dst.Cnt = append(dst.Cnt[:0], d.Cnt...)
	dst.Noti = append(dst.Noti[:0], d.Noti...)
	dst.Largest = copyTable(dst.Largest, d.Largest)
	dst.PendingRel = append(dst.PendingRel[:0], d.PendingRel...)
	dst.PendingReq = append(dst.PendingReq[:0], d.PendingReq...)
}

func find(tab []PE, proc int, ep uint64) int {
	for i := range tab {
		if tab[i].Proc == proc && tab[i].Ep == ep {
			return i
		}
	}
	return -1
}

func get(tab []PE, proc int, ep uint64) uint64 {
	if i := find(tab, proc, ep); i >= 0 {
		return tab[i].N
	}
	return 0
}

func add(tab *[]PE, proc int, ep uint64) {
	if i := find(*tab, proc, ep); i >= 0 {
		(*tab)[i].N++
		return
	}
	*tab = append(*tab, PE{Proc: proc, Ep: ep, N: 1})
}

func drop(tab *[]PE, proc int, ep uint64) {
	if i := find(*tab, proc, ep); i >= 0 {
		*tab = append((*tab)[:i], (*tab)[i+1:]...)
	}
}

// NoteRelaxed counts one committed relaxed store from proc's epoch ep.
func (d *CordDir) NoteRelaxed(proc int, ep uint64) { add(&d.Cnt, proc, ep) }

// NoteNotify counts one received notification for proc's epoch ep.
func (d *CordDir) NoteNotify(proc int, ep uint64) { add(&d.Noti, proc, ep) }

// prevCommitted reports whether the message's named predecessor release has
// committed at this directory (point-to-point order, Alg. 2 line 9).
func (d *CordDir) prevCommitted(m Msg) bool {
	if !m.HasPrev {
		return true
	}
	return d.Largest[m.Src] >= int64(m.PrevEp)
}

// ReleaseEligible reports whether a release may commit: all of its epoch's
// relaxed stores to this directory have arrived, its predecessor committed,
// and all expected notifications were received.
func (d *CordDir) ReleaseEligible(m Msg) bool {
	return get(d.Cnt, m.Src, m.Ep) >= m.Cnt && d.prevCommitted(m) &&
		get(d.Noti, m.Src, m.Ep) >= uint64(m.NotiCnt)
}

// ReqEligible reports whether a notification request may be served: the
// epoch's relaxed stores to this directory arrived and the predecessor
// release committed.
func (d *CordDir) ReqEligible(m Msg) bool {
	return get(d.Cnt, m.Src, m.Ep) >= m.Cnt && d.prevCommitted(m)
}

// BufferRelease parks an ineligible release in the recycle buffer.
func (d *CordDir) BufferRelease(m Msg) { d.PendingRel = append(d.PendingRel, m) }

// BufferReq parks an ineligible notification request.
func (d *CordDir) BufferReq(m Msg) { d.PendingReq = append(d.PendingReq, m) }

// CommitRelease applies an eligible release's directory bookkeeping: the
// processor's largest committed epoch advances (newLargest reports its
// first) and the epoch's counter entries retire. The memory-cell effect
// (write, fetch-add, or nothing for a barrier) is the driver's, as is
// sending MAck{Src, Dir, Ep} back.
func (d *CordDir) CommitRelease(m Msg) (newLargest bool) {
	newLargest = d.Largest[m.Src] < 0
	if int64(m.Ep) > d.Largest[m.Src] {
		d.Largest[m.Src] = int64(m.Ep)
	}
	drop(&d.Cnt, m.Src, m.Ep)
	drop(&d.Noti, m.Src, m.Ep)
	return newLargest
}

// SendNotify serves an eligible notification request: the epoch's
// store-counter entry retires (§4.3) and the notification either travels to
// another directory (wire=true, out is the MNotify to send) or — for the
// degenerate self-notification — is absorbed locally.
func (d *CordDir) SendNotify(m Msg, self int) (out Msg, wire bool) {
	drop(&d.Cnt, m.Src, m.Ep)
	out = Msg{Kind: MNotify, Src: m.Src, Dir: m.Dst, Ep: m.Ep}
	if m.Dst == self {
		d.NoteNotify(m.Src, m.Ep)
		return out, false
	}
	return out, true
}

// Reeval drains the recycle buffers to a fixpoint, in the simulator's order:
// repeated passes over the buffered releases then the buffered requests,
// until a full pass makes no progress. commit receives each now-eligible
// release (already removed from the buffer; the driver applies or schedules
// CommitRelease plus the memory effect and the ack). notify receives each
// MNotify that must travel to another directory; self-notifications are
// absorbed here and feed the fixpoint. Eligibility is monotone — commits
// and notifications only enable more messages — so the drain order cannot
// change the reachable fixpoint.
func (d *CordDir) Reeval(self int, commit func(Msg), notify func(Msg)) {
	for {
		progress := false
		keep := d.PendingRel[:0]
		for _, m := range d.PendingRel {
			if d.ReleaseEligible(m) {
				progress = true
				commit(m)
			} else {
				keep = append(keep, m)
			}
		}
		d.PendingRel = keep
		keepQ := d.PendingReq[:0]
		for _, m := range d.PendingReq {
			if d.ReqEligible(m) {
				progress = true
				out, wire := d.SendNotify(m, self)
				if wire {
					notify(out)
				}
			} else {
				keepQ = append(keepQ, m)
			}
		}
		d.PendingReq = keepQ
		if !progress {
			return
		}
	}
}

// Buffered is the number of messages parked in the recycle buffers.
func (d *CordDir) Buffered() int { return len(d.PendingRel) + len(d.PendingReq) }
