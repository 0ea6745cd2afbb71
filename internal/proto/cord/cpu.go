package cord

import (
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// cpu is the CORD processor-side adapter (Alg. 1). What an op issues and
// waits on — admission, provisioning, release/barrier fan-out, overflow
// flushes, write-combining, acknowledgment bookkeeping — is core.CordProc's
// Issue and Receive rules, the ones the litmus model checker explores; this
// type owns only timing, NoC injection, stats, and obs events. The messages
// it sends are the core rules' core.Msg values.
type cpu struct {
	proto.ProcBase
	cfg Config
	cp  core.CordParams

	// st is the protocol-visible state (epoch, store counters, unacked-epoch
	// table, issued waits), mutated exclusively through core rules.
	// Directories are named by their dense index (proto.System.Index).
	st core.CordProc
	// out is the reusable Issue output.
	out []core.Msg

	// occCnt and occUnacked follow st.CntLive and len(st.Unacked).
	occCnt     *stats.Occupancy
	occUnacked *stats.Occupancy

	// relIssued records each epoch's Release issue time for the
	// release-latency distribution.
	relIssued map[uint64]sim.Time
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
	c.Waiting = func() bool { return c.st.Blocked(c.cp, c.Wait) }
	c.OnReply = c.onReply
	c.occCnt.Instance = id.String()
	c.occUnacked.Instance = id.String()
	sys.Run.Tables = append(sys.Run.Tables, c.occCnt, c.occUnacked)
	return c
}

// exec runs op through the core Issue rule; it is also where every Retry
// resumes. Write-back stores stay source-ordered (§4.4), and under TSO (§6)
// every relaxed store and atomic is directory-ordered through the
// Release-Release mechanism.
func (c *cpu) exec(op proto.Op) {
	cop := c.CoreOp(op)
	if op.Kind == proto.OpStoreWB {
		cop.Kind = core.OpWriteBack
	}
	if c.Sys.Mode == proto.TSO && op.Kind != proto.OpBarrier && op.Ord == proto.Relaxed {
		cop.Release = true
	}
	out, w := c.st.Issue(c.cp, &cop, c.out[:0])
	c.out = out
	c.occCnt.Set(c.st.CntLive)
	c.occUnacked.Set(len(c.st.Unacked))
	// A relaxed far atomic's stall opens before its request goes out.
	stallFirst := w.On == core.WaitAtomic && !cop.Release
	if stallFirst {
		c.Finish(w)
	}
	barrier := w.On == core.WaitEpochs || w.On == core.WaitDrain
	for i := range out {
		c.send(&out[i], barrier)
	}
	if !stallFirst {
		c.Finish(w)
	}
}

// send puts a core-emitted message on the wire to its directory, m.Dir. A
// barrier's or drain's empty releases travel as ClassBarrier; any other
// release starts its epoch's release-latency clock.
func (c *cpu) send(m *core.Msg, barrier bool) {
	var class stats.MsgClass
	var bytes int
	switch m.Kind {
	case core.MRelaxed:
		class, bytes = stats.ClassRelaxedData, proto.HeaderBytes+m.Size+c.cfg.RelaxedOverhead()
		if m.Atomic {
			class = stats.ClassAtomic
		}
	case core.MReqNotify:
		class, bytes = stats.ClassReqNotify, proto.ReqNotifyBytes
	case core.MRelease:
		class, bytes = stats.ClassReleaseData, proto.HeaderBytes+m.Size+c.cfg.ReleaseOverhead()
		if barrier {
			class = stats.ClassBarrier
		} else {
			c.relIssued[m.Ep] = c.Now()
		}
	case core.MWBData:
		class, bytes = stats.ClassWriteback, proto.HeaderBytes+m.Size
	}
	c.Sys.Net.Send(c.ID, c.Sys.DirAt(m.Dir), class, bytes, c.Sys.NewMsg(*m))
}

// onReply applies a release acknowledgment (Alg. 1 lines 14-15), an
// atomic's value or a write-back acknowledgment. An acknowledgment that
// retires its epoch records the release latency.
func (c *cpu) onReply(m *core.Msg) {
	if c.st.Receive(m) {
		c.occUnacked.Set(len(c.st.Unacked))
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
