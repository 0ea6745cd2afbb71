package cord

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/stats"
)

// dir is the CORD directory-side adapter (Alg. 2). Each instance is one LLC
// slice's directory. Eligibility, commit bookkeeping, notification serving,
// and the recycle fixpoint are all core.CordDir rules — the same rules the
// litmus model checker explores; this type owns timing (scheduled LLC
// commits), NoC injection, stats, and obs events.
type dir struct {
	proto.DirBase
	cfg Config

	// st holds the protocol-visible tables (store counters, notification
	// counters, largest committed epochs, recycle buffers).
	st core.CordDir

	occCnt, occNoti, occLargest, occNetBuf *stats.Occupancy

	// Recycles counts how many times a buffered message was re-evaluated
	// without becoming eligible, for diagnostics.
	Recycles int
}

func newDir(sys *proto.System, id noc.NodeID, cfg Config) *dir {
	d := &dir{
		cfg:        cfg,
		st:         core.NewCordDir(sys.Nodes()),
		occCnt:     stats.NewOccupancy("dir/store-counter", dirCntEntryBytes),
		occNoti:    stats.NewOccupancy("dir/notification-counter", dirNotiEntryBytes),
		occLargest: stats.NewOccupancy("dir/largest-epoch", dirLargestEpEntryBytes),
		occNetBuf:  stats.NewOccupancy("dir/network-buffer", dirNetBufEntryBytes),
	}
	d.InitBase(sys, id)
	d.Commit = d.commit
	for _, o := range []*stats.Occupancy{d.occCnt, d.occNoti, d.occLargest, d.occNetBuf} {
		o.Instance = id.String()
	}
	sys.Run.Tables = append(sys.Run.Tables, d.occCnt, d.occNoti, d.occLargest, d.occNetBuf)
	return d
}

func (d *dir) handle(src noc.NodeID, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadReq:
		d.HandleLoadReq(m)
	case core.MRelaxed:
		d.onRelaxed(src, m)
	case core.MRelease:
		d.onRelease(src, m)
	case core.MReqNotify:
		d.onReqNotify(src, m)
		d.Sys.FreeMsg(m)
	case core.MNotify:
		d.onNotify(m)
		d.Sys.FreeMsg(m)
	case core.MWBData:
		// Source-ordered write-back store (§4.4): commit, then acknowledge.
		d.Later(d.Sys.Timing.CommitLatency(), m)
	default:
		panic(fmt.Sprintf("cord: dir %v got unexpected message kind %d from %v", d.ID, m.Kind, src))
	}
}

// commit is the LLC commit of a message the directory holds. A commit that
// answers the core rewrites the message into the answer; any other frees it.
func (d *dir) commit(m *core.Msg) {
	switch m.Kind {
	case core.MRelaxed:
		if !m.Atomic {
			d.CommitValue(memsys.Addr(m.Addr), m.Val)
			d.Sys.FreeMsg(m)
			return
		}
		old := d.FetchAdd(memsys.Addr(m.Addr), m.Val)
		*m = core.Msg{Kind: core.MAtomicResp, Src: m.Src, Dir: d.Ix, Val: old, Tag: m.Tag}
		d.Sys.Net.Send(d.ID, d.Sys.CoreAt(m.Src), stats.ClassAtomicResp, proto.AckBytes+8, m)
	case core.MRelease:
		d.commitRelease(m)
	case core.MWBData:
		d.CommitValue(memsys.Addr(m.Addr), m.Val)
		*m = core.Msg{Kind: core.MWBAck, Src: m.Src, Dir: d.Ix, Tag: m.Tag}
		d.Sys.Net.Send(d.ID, d.Sys.CoreAt(m.Src), stats.ClassAck, proto.AckBytes, m)
	default:
		panic(fmt.Sprintf("cord: dir %v commits message kind %d", d.ID, m.Kind))
	}
}

// onRelaxed commits a Relaxed store immediately (Alg. 2 lines 18-20). The
// ordering point is arrival at the directory controller: the store counter
// bumps right away, and the LLC write pipelines behind it. A Release that
// becomes eligible on this count schedules its own commit at least one
// commit latency later, so its LLC write never overtakes this one.
func (d *dir) onRelaxed(src noc.NodeID, m *core.Msg) {
	if d.st.NoteRelaxed(m.Src, m.Ep) {
		d.occCnt.Inc()
	}
	if rec := d.Obs; rec.Take() {
		// The store is directory-ordered the moment its counter bumps.
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KOrdered,
			Src: d.ID.Obs(), Dst: src.Obs(), Seq: m.Ep, Addr: m.Addr})
	}
	d.Later(d.Sys.Timing.CommitLatency(), m)
	d.reeval()
}

// onRelease commits an eligible Release store or recycles it (Alg. 2 21-24).
func (d *dir) onRelease(src noc.NodeID, m *core.Msg) {
	if !d.st.ReleaseEligible(*m) {
		d.st.BufferRelease(*m)
		d.occNetBuf.Inc()
		d.noteRetry(stats.ClassReleaseData, src, m.Ep)
		d.Sys.FreeMsg(m)
		return
	}
	d.Later(d.Sys.Timing.CommitLatency(), m)
}

// noteRetry records a recycle-buffer admission: the depth for the metrics
// registry and, when sampled, a KRetry event.
func (d *dir) noteRetry(class stats.MsgClass, src noc.NodeID, ep uint64) {
	rec := d.Obs
	rec.DirDepth(d.st.Buffered())
	if rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRetry,
			Src: d.ID.Obs(), Dst: src.Obs(), Class: class, Seq: ep})
	}
}

// commitRelease applies an eligible Release's memory effect and the core
// rule's table effects, then rewrites the Release into the acknowledgment
// that leaves for the issuing core.
func (d *dir) commitRelease(m *core.Msg) {
	switch {
	case m.Atomic:
		d.FetchAdd(memsys.Addr(m.Addr), m.Val)
	case !m.Barrier:
		d.CommitValue(memsys.Addr(m.Addr), m.Val)
	}
	freedCnt, freedNoti, newLargest := d.st.CommitRelease(*m)
	if newLargest {
		d.occLargest.Inc()
	}
	if freedCnt {
		d.occCnt.Dec()
	}
	if freedNoti {
		d.occNoti.Dec()
	}
	src := d.Sys.CoreAt(m.Src)
	class, size := stats.ClassAck, proto.AckBytes
	if m.Atomic {
		class, size = stats.ClassAtomicResp, proto.AckBytes+8
	}
	if rec := d.Obs; rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRelCommit,
			Src: d.ID.Obs(), Dst: src.Obs(), Seq: m.Ep, Addr: m.Addr})
	}
	*m = core.Msg{Kind: core.MAck, Src: m.Src, Dir: d.Ix, Ep: m.Ep}
	d.Sys.Net.Send(d.ID, src, class, size, m)
	d.reeval()
}

// onReqNotify forwards a notification to the destination directory once the
// local pending stores commit (Alg. 2 lines 25-28).
func (d *dir) onReqNotify(src noc.NodeID, m *core.Msg) {
	if !d.st.ReqEligible(*m) {
		d.st.BufferReq(*m)
		d.occNetBuf.Inc()
		d.noteRetry(stats.ClassReqNotify, src, m.Ep)
		return
	}
	d.serveNotify(*m)
}

// serveNotify consumes an eligible request-for-notification through the core
// rule: the store-counter entry retires (§4.3) and the notification either
// goes on the wire or — for a degenerate self-notification — is absorbed.
func (d *dir) serveNotify(cm core.Msg) {
	out, wire, freedCnt, selfNew := d.st.SendNotify(cm, d.Ix)
	if freedCnt {
		d.occCnt.Dec()
	}
	if !wire {
		if selfNew {
			d.occNoti.Inc()
		}
		d.reeval()
		return
	}
	d.wireNotify(out)
}

// wireNotify sends a core-emitted notification to its destination directory.
func (d *dir) wireNotify(out core.Msg) {
	dst := d.Sys.DirAt(out.Dir)
	if rec := d.Obs; rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KNotify,
			Src: d.ID.Obs(), Dst: dst.Obs(), Seq: out.Ep})
	}
	d.Sys.Net.Send(d.ID, dst, stats.ClassNotify, proto.NotifyBytes, d.Sys.NewMsg(out))
}

// onNotify counts a notification toward the corresponding Release
// (Alg. 2 lines 29-30).
func (d *dir) onNotify(m *core.Msg) {
	if d.st.NoteNotify(m.Src, m.Ep) {
		d.occNoti.Inc()
	}
	d.reeval()
}

// reeval runs the core recycle fixpoint: committing one Release may unblock
// a buffered request-for-notification for a later epoch and vice versa.
// Occupancy deltas from entries the rules reclaim internally (served
// requests) are reconciled afterwards — no simulated time passes inside the
// fixpoint, so the deferred updates are indistinguishable.
func (d *dir) reeval() {
	cntB, notiB, reqB := len(d.st.Cnt), len(d.st.Noti), len(d.st.PendingReq)
	d.st.Reeval(d.Ix,
		func(m core.Msg) { d.occNetBuf.Dec(); d.Later(d.Sys.Timing.CommitLatency(), d.Sys.NewMsg(m)) },
		func(out core.Msg) { d.wireNotify(out) },
		func() { d.Recycles++ })
	for n := cntB - len(d.st.Cnt); n > 0; n-- {
		d.occCnt.Dec()
	}
	for n := len(d.st.Noti) - notiB; n > 0; n-- {
		d.occNoti.Inc()
	}
	for n := reqB - len(d.st.PendingReq); n > 0; n-- {
		d.occNetBuf.Dec()
	}
}

// Protocol is the proto.Builder for CORD (and, with SeqBits set, SEQ-N).
type Protocol struct {
	Cfg Config
	// Variants are core-level ablation switches applied on top of Cfg's
	// derived parameters — the same switches litmus configs apply, so a
	// tweak defined once is simultaneously simulated and model-checked.
	Variants []core.Variant
}

// New returns CORD with the paper's default configuration.
func New() *Protocol { return &Protocol{Cfg: DefaultConfig()} }

// NewSeq returns the SEQ-N monolithic sequence-number baseline.
func NewSeq(bits int) *Protocol { return &Protocol{Cfg: SeqConfig(bits)} }

// Name implements proto.Builder.
func (p *Protocol) Name() string {
	if p.Cfg.SeqBits > 0 {
		return fmt.Sprintf("SEQ-%d", p.Cfg.SeqBits)
	}
	return "CORD"
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	if err := p.Cfg.Validate(); err != nil {
		panic(err)
	}
	cp := p.Cfg.Params()
	for _, v := range p.Variants {
		v.Apply(&cp)
	}
	for _, id := range sys.Dirs() {
		d := newDir(sys, id, p.Cfg)
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := newCPU(sys, id, &sys.Run.Procs[i], p.Cfg, cp)
		sys.Net.Register(id, c.handle)
		cpus[i] = c
	}
	return cpus
}
