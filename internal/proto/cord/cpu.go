package cord

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// cpu is the CORD processor-side adapter (Alg. 1). Every ordering decision —
// admission, provisioning, release/barrier fan-out, acknowledgment
// bookkeeping — is delegated to core.CordProc, the rule set the litmus model
// checker explores; this type owns only timing, NoC injection, stats, and
// obs events. The messages it sends are the core rules' core.Msg values.
type cpu struct {
	proto.ProcBase
	cfg Config
	cp  core.CordParams

	// st is the protocol-visible state (epoch, store counters, unacked-epoch
	// table), mutated exclusively through core rules. Directories are named
	// by their dense index (proto.System.Index).
	st core.CordProc
	// buf is the reusable fan-out scratch passed to core emit rules.
	buf []core.Msg

	occCnt     *stats.Occupancy
	occUnacked *stats.Occupancy

	// wcAddr implements a one-entry write-combining buffer: consecutive
	// Relaxed stores to the same address merge into one wire transaction
	// (and one directory store-counter increment).
	wcAddr  memsys.Addr
	wcValid bool

	// wbPending counts outstanding (unacknowledged) write-back stores,
	// which remain source-ordered under CORD (§4.4).
	wbPending int
	wbNextTag uint64
	// atomicWait is set while the core awaits the value response of the
	// relaxed far atomic tagged atomicTag.
	atomicTag  uint64
	atomicWait bool
	// relIssued records each epoch's Release issue time for the
	// release-latency distribution.
	relIssued map[uint64]sim.Time

	// Stall conditions, bound once so that blocking allocates nothing;
	// waitDir and waitEp parameterize them.
	waitDir int
	waitEp  uint64

	unprovisioned, unackedOutside, epochLive, unacked, wbBusy, atomicBusy func() bool
}

func newCPU(sys *proto.System, id noc.NodeID, ps *stats.ProcStats, cfg Config, cp core.CordParams) *cpu {
	c := &cpu{
		cfg:        cfg,
		cp:         cp,
		st:         core.NewCordProc(sys.Nodes()),
		occCnt:     stats.NewOccupancy("proc/store-counter", procCntEntryBytes),
		occUnacked: stats.NewOccupancy("proc/unacked-epoch", procUnackedEntryBytes),
		relIssued:  make(map[uint64]sim.Time),
	}
	c.InitBase(sys, id, ps)
	c.Exec = c.exec
	c.unprovisioned = func() bool { return !c.st.Provisioned(c.cp, c.waitDir) }
	c.unackedOutside = func() bool { return c.st.UnackedOutside(c.waitDir) }
	c.epochLive = func() bool { return c.st.EpochLive(c.waitEp) }
	c.unacked = func() bool { return len(c.st.Unacked) > 0 }
	c.wbBusy = func() bool { return c.wbPending > 0 }
	c.atomicBusy = func() bool { return c.atomicWait }
	c.occCnt.Instance = id.String()
	c.occUnacked.Instance = id.String()
	sys.Run.Tables = append(sys.Run.Tables, c.occCnt, c.occUnacked)
	return c
}

func (c *cpu) handle(_ noc.NodeID, payload any) {
	m := payload.(*core.Msg)
	switch m.Kind {
	case core.MLoadResp:
		c.HandleLoadResp(m)
	case core.MAck:
		c.onAck(m)
	case core.MWBAck:
		c.onWBAck()
	case core.MAtomicResp:
		c.onAtomicResp(m)
	default:
		panic(fmt.Sprintf("cord: cpu %v got unexpected message kind %d", c.ID, m.Kind))
	}
	c.Sys.FreeMsg(m)
}

// send puts a message on the wire to its directory, m.Dir.
func (c *cpu) send(m core.Msg, class stats.MsgClass, bytes int) {
	c.Sys.Net.Send(c.ID, c.Sys.DirAt(m.Dir), class, bytes, c.Sys.NewMsg(m))
}

// exec runs op from the top; it is also where every Retry resumes.
func (c *cpu) exec(op proto.Op) {
	switch op.Kind {
	case proto.OpAtomic:
		c.execAtomic(op)
	case proto.OpStoreWB:
		c.execWriteBack(op)
	case proto.OpStoreWT:
		ord := op.Ord
		if c.Sys.Mode == proto.TSO && ord == proto.Relaxed {
			// §6: under TSO every write-through store is directory-ordered
			// through the Release-Release mechanism.
			ord = proto.Release
		}
		if ord == proto.Release {
			c.execRelease(op)
		} else {
			c.execRelaxed(op)
		}
	case proto.OpBarrier:
		switch op.Ord {
		case proto.Release, proto.SeqCst:
			if c.issueBarrier() {
				c.Await(c.unacked, stats.StallRelease)
			}
		default:
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("cord: unexpected op %v", op))
	}
}

// --- Relaxed path (Alg. 1 lines 1-4) -------------------------------------

func (c *cpu) execRelaxed(op proto.Op) {
	if c.wcValid && c.wcAddr == op.Addr {
		// Write-combined with the previous Relaxed store.
		c.Retire()
		return
	}
	d := c.Sys.Index(c.Sys.Map.HomeOf(op.Addr))
	if a := c.st.RelaxedAdmit(c.cp, d); a != core.AdmitOK {
		c.flush(d, a)
		return
	}
	ep, newEntry := c.st.NoteRelaxed(d)
	if newEntry {
		c.occCnt.Inc()
	}
	c.wcAddr, c.wcValid = op.Addr, true
	c.send(core.Msg{Kind: core.MRelaxed, Src: c.Ix, Dir: d, Ep: ep,
		Addr: uint64(op.Addr), Val: op.Value, Size: int(op.Size)},
		stats.ClassRelaxedData, proto.HeaderBytes+int(op.Size)+c.cfg.RelaxedOverhead())
	c.Retire()
}

// flush performs an empty Release to dir d (full Release semantics so every
// pending directory's tables are finalized) and retries the op once it is
// acknowledged. A relaxed store (or atomic) flushes when d's store counter
// would overflow (§4.1), or when tracking d needs a processor store-counter
// table entry and none is free (§4.3): the new epoch recycles them all.
func (c *cpu) flush(d int, a core.Admit) {
	kind := stats.StallOverflow
	if a == core.AdmitTableFull {
		kind = stats.StallTableFull
	}
	if !c.st.Provisioned(c.cp, d) {
		c.stallProvision(d)
		return
	}
	c.issueRelease(proto.Op{Kind: proto.OpStoreWT, Ord: proto.Release, Size: 0}, d)
	c.waitEp = c.st.Ep - 1
	c.Retry(c.epochLive, kind)
}

// --- Release path (Alg. 1 lines 5-13) -------------------------------------

func (c *cpu) execRelease(op proto.Op) {
	d := c.Sys.Index(c.Sys.Map.HomeOf(op.Addr))
	if c.releaseReady(d) {
		c.issueRelease(op, d)
		c.Retire()
	}
}

// releaseReady reports whether a Release to directory d may issue now. If
// not, the op is blocked and retried: d must be provisioned, and, in the
// NoNotifications ablation, every other directory drained first.
func (c *cpu) releaseReady(d int) bool {
	if !c.st.Provisioned(c.cp, d) {
		c.stallProvision(d)
		return false
	}
	if c.cp.NoNotifications && (c.st.DirtyOutside(d) || c.st.UnackedOutside(d)) {
		// Ablation: without inter-directory notifications, multi-directory
		// epochs are source-ordered — drain other directories first.
		c.drainExcept(d)
		return false
	}
	return true
}

// drainExcept drains every directory except index `except`: empty Releases
// to dirty ones (core.IssueBarrier in drain mode, sharing the current
// epoch), then a stall for all outstanding acknowledgments not bound for it,
// after which the op is retried. Used only by the NoNotifications ablation.
func (c *cpu) drainExcept(except int) {
	msgs, ok, bad := c.st.IssueBarrier(c.cp, except, c.Ix, c.buf[:0])
	if !ok {
		c.stallProvision(bad)
		return
	}
	c.buf = msgs
	if len(msgs) > 0 {
		c.occUnacked.Inc()
		for range msgs {
			// Each drained directory's store-counter entry retired.
			c.occCnt.Dec()
		}
	}
	c.sendBarriers(msgs)
	c.waitDir = except
	c.Retry(c.unackedOutside, stats.StallAckWait)
}

// sendBarriers injects core-emitted empty Releases onto the NoC.
func (c *cpu) sendBarriers(msgs []core.Msg) {
	for _, m := range msgs {
		c.send(m, stats.ClassBarrier, proto.HeaderBytes+c.cfg.ReleaseOverhead())
	}
}

// stallProvision blocks the core until directory d is provisioned for one
// more Release (§4.3), then retries the op. The caller found it
// unprovisioned.
func (c *cpu) stallProvision(d int) {
	kind := stats.StallTableFull
	if c.st.WindowBlocked(c.cp) {
		kind = stats.StallOverflow
	}
	c.waitDir = d
	c.Retry(c.unprovisioned, kind)
}

// issueRelease delegates the Release (and its notification fan-out) to the
// core rule and injects the emitted messages in order. The caller has
// already verified provisioning.
func (c *cpu) issueRelease(op proto.Op, d int) {
	ep := c.st.Ep
	live := c.st.CntLive
	rel := core.Msg{Src: c.Ix, Addr: uint64(op.Addr), Val: op.Value,
		Size: int(op.Size), Barrier: op.Size == 0, Atomic: op.Kind == proto.OpAtomic}
	msgs := c.st.IssueRelease(d, rel, c.buf[:0])
	for _, m := range msgs {
		if m.Kind == core.MReqNotify {
			c.send(m, stats.ClassReqNotify, proto.ReqNotifyBytes)
			continue
		}
		c.send(m, stats.ClassReleaseData, proto.HeaderBytes+int(op.Size)+c.cfg.ReleaseOverhead())
	}
	c.buf = msgs
	c.occUnacked.Inc()
	c.relIssued[ep] = c.Now()
	for ; live > 0; live-- {
		// advanceEpoch reset every live store counter.
		c.occCnt.Dec()
	}
	c.wcValid = false
}

// --- Atomics -----------------------------------------------------------------

// execAtomic issues a directory-ordered far fetch-add. Ordering-wise it
// behaves exactly like the corresponding store (Relaxed atomics count in the
// epoch's store counter; Release atomics take the full Release path), but
// the core additionally blocks on the value response — a data dependency
// that directory ordering cannot remove, which is why atomic-heavy
// workloads (TQH's task queue) gain least from CORD.
func (c *cpu) execAtomic(op proto.Op) {
	ord := op.Ord
	if c.Sys.Mode == proto.TSO && ord == proto.Relaxed {
		ord = proto.Release
	}
	d := c.Sys.Index(c.Sys.Map.HomeOf(op.Addr))
	if ord == proto.Release || ord == proto.SeqCst {
		if !c.releaseReady(d) {
			return
		}
		c.issueRelease(op, d)
		c.waitEp = c.st.Ep - 1
		c.Await(c.epochLive, stats.StallAcquire)
		return
	}
	// Relaxed atomic: epoch-counted like a Relaxed store, plus the blocking
	// value response.
	if a := c.st.RelaxedAdmit(c.cp, d); a != core.AdmitOK {
		c.flush(d, a)
		return
	}
	ep, newEntry := c.st.NoteRelaxed(d)
	if newEntry {
		c.occCnt.Inc()
	}
	c.wcValid = false // atomics never write-combine
	c.atomicTag++
	c.atomicWait = true
	c.Await(c.atomicBusy, stats.StallAcquire)
	c.send(core.Msg{Kind: core.MRelaxed, Src: c.Ix, Dir: d, Ep: ep,
		Addr: uint64(op.Addr), Val: op.Value, Size: int(op.Size), Atomic: true, Tag: c.atomicTag},
		stats.ClassAtomic, proto.HeaderBytes+int(op.Size)+c.cfg.RelaxedOverhead())
}

func (c *cpu) onAtomicResp(m *core.Msg) {
	if !c.atomicWait || m.Tag != c.atomicTag {
		panic("cord: unknown atomic response tag")
	}
	c.atomicWait = false
	c.Recheck()
}

// --- Write-back stores (§4.4) ----------------------------------------------

// execWriteBack issues a write-back store, which CORD leaves source-ordered.
// A Release write-back store after directory-ordered Relaxed stores cannot
// be source-ordered against them (they have no acknowledgments), so the
// processor injects a directory-ordered Release barrier and stalls until it
// is acknowledged before issuing the Release write-back (§4.4).
func (c *cpu) execWriteBack(op proto.Op) {
	if op.Ord != proto.Release && c.Sys.Mode != proto.TSO {
		c.sendWB(op)
		c.Retire()
		return
	}
	// Ordering barrier against uncommitted directory-ordered stores.
	if c.st.Dirty() || len(c.st.Unacked) > 0 {
		if c.issueBarrier() {
			c.Retry(c.unacked, stats.StallRelease)
		}
		return
	}
	// Source ordering of the write-back Release against prior write-backs.
	if c.wbPending > 0 {
		c.Retry(c.wbBusy, stats.StallAckWait)
		return
	}
	c.sendWB(op)
	c.Retire()
}

func (c *cpu) sendWB(op proto.Op) {
	c.wbNextTag++
	c.wbPending++
	c.wcValid = false
	c.send(core.Msg{Kind: core.MWBData, Src: c.Ix, Dir: c.Sys.Index(c.Sys.Map.HomeOf(op.Addr)),
		Addr: uint64(op.Addr), Val: op.Value, Size: int(op.Size), Tag: c.wbNextTag},
		stats.ClassWriteback, proto.HeaderBytes+int(op.Size))
}

func (c *cpu) onWBAck() {
	if c.wbPending == 0 {
		panic("cord: spurious write-back ack")
	}
	c.wbPending--
	c.Recheck()
}

// --- Release / SC barrier (§4.4) ------------------------------------------

// issueBarrier makes all prior write-through stores globally visible: it
// broadcasts an empty directory-ordered Release to every directory holding
// uncommitted Relaxed stores of the current epoch; the caller then waits for
// those plus every already-outstanding Release acknowledgment (§4.4).
// Directories whose only pending work is an in-flight acknowledged-on-commit
// Release need no new message — their existing ack suffices. It returns
// false, and the op is retried, if a target directory is unprovisioned.
func (c *cpu) issueBarrier() bool {
	live := c.st.CntLive
	msgs, ok, bad := c.st.IssueBarrier(c.cp, -1, c.Ix, c.buf[:0])
	if !ok {
		c.stallProvision(bad)
		return false
	}
	c.buf = msgs
	if len(msgs) > 0 {
		c.occUnacked.Inc()
		c.wcValid = false
		for ; live > 0; live-- {
			c.occCnt.Dec()
		}
	}
	c.sendBarriers(msgs)
	return true
}

// --- Acknowledgments (Alg. 1 lines 14-15) ---------------------------------

func (c *cpu) onAck(m *core.Msg) {
	if c.st.AckRelease(m.Ep) {
		c.occUnacked.Dec()
		var lat sim.Time
		if at, ok := c.relIssued[m.Ep]; ok {
			lat = c.Now() - at
			c.PS.ReleaseLatency.Add(lat)
			delete(c.relIssued, m.Ep)
		}
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: m.Ep, Dur: lat})
		}
	}
	c.Recheck()
}
