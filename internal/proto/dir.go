package proto

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// DirBase is the protocol-independent half of a directory slice: the
// functional LLC contents (every committed store), and the waiter list
// that implements acquire-side polling. Protocol directory types embed it.
type DirBase struct {
	Sys *System
	ID  noc.NodeID
	// Ix is the slice's dense index (System.Index), its identity in core.Msg.
	Ix    int
	Store *memsys.Store
	// Eng and Obs are the slice's host-shard engine and recorder, cached at
	// InitBase (see ProcBase).
	Eng *sim.Engine
	Obs *obs.Recorder

	// Commit is the protocol's delayed work on a message the slice holds
	// (see Later); the protocol sets it.
	Commit func(m *core.Msg)

	// waiters are the parked MLoadReq messages, by flag address; parked
	// counts them, so a commit with nothing parked skips the lookup.
	waiters map[memsys.Addr][]*core.Msg
	parked  int
	later   sim.DeliverFunc // runLater, bound once so Later allocates nothing
}

// InitBase prepares the embedded fields and registers the slice's store for
// post-run memory read-back (System.ReadMem).
func (d *DirBase) InitBase(sys *System, id noc.NodeID) {
	d.Sys = sys
	d.ID = id
	d.Ix = sys.Index(id)
	d.Eng = sys.EngOf(id.Host)
	d.Obs = sys.ObsOf(id.Host)
	d.Store = memsys.NewStore()
	d.waiters = make(map[memsys.Addr][]*core.Msg)
	d.later = d.runLater
	sys.stores[d.Ix] = d.Store
}

// CommitValue writes v to addr in the LLC slice, monotonically (flags are
// counters; a late-arriving older store must not regress the value), and
// wakes any satisfied pollers. The caller is responsible for modeling the
// commit latency before invoking it.
func (d *DirBase) CommitValue(addr memsys.Addr, v uint64) {
	d.Store.Max(addr, v)
	if rec := d.Obs; rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KCommit,
			Src: d.ID.Obs(), Addr: uint64(addr), Seq: v})
	}
	d.wake(addr)
}

// wake serves the polls parked on addr again, in place: the satisfied ones
// are answered, the rest park anew.
func (d *DirBase) wake(addr memsys.Addr) {
	if d.parked == 0 {
		return
	}
	ws := d.waiters[addr]
	if len(ws) == 0 {
		return
	}
	d.waiters[addr] = ws[:0]
	d.parked -= len(ws)
	for _, w := range ws {
		d.serveLoad(w)
	}
}

// Later runs the slice's delayed work on m after delay cycles: an acquire
// poll's LLC access, or Commit. m belongs to that work (DESIGN.md §9.2).
func (d *DirBase) Later(delay sim.Time, m *core.Msg) {
	d.Eng.ScheduleDeliver(delay, d.later, 0, m)
}

func (d *DirBase) runLater(_ uint64, payload any) {
	switch m := payload.(*core.Msg); m.Kind {
	case core.MLoadReq:
		d.serveLoad(m)
	case freedKind:
		panic(fmt.Sprintf("proto: dir %v holds a freed message", d.ID))
	default:
		d.Commit(m)
	}
}

// HandleLoadReq services an acquire poll after the LLC access latency
// (serveLoad). Protocol directory handlers route MLoadReq messages here.
func (d *DirBase) HandleLoadReq(m *core.Msg) { d.Later(d.Sys.Timing.LLCCycles, m) }

// serveLoad answers the poll m, rewritten into its response, if the flag
// satisfies it, and parks it otherwise.
func (d *DirBase) serveLoad(m *core.Msg) {
	addr := memsys.Addr(m.Addr)
	val := d.Store.Read(addr)
	if val < m.Val {
		d.waiters[addr] = append(d.waiters[addr], m)
		d.parked++
		return
	}
	src := d.Sys.CoreAt(m.Src)
	*m = core.Msg{Kind: core.MLoadResp, Src: m.Src, Dir: d.Ix, Addr: m.Addr, Val: val, Tag: m.Tag}
	d.Sys.Net.Send(d.ID, src, stats.ClassLoadResp, LoadRespBytes, m)
}

// FetchAdd atomically adds to the 8-byte word at addr and returns the prior
// value, waking any satisfied pollers. Unlike CommitValue it is not
// monotonic-clamped: atomic updates are totally ordered at the directory by
// construction, so ordinary read-modify-write semantics apply.
func (d *DirBase) FetchAdd(addr memsys.Addr, add uint64) uint64 {
	old := d.Store.Read(addr)
	d.Store.Write(addr, old+add)
	d.wake(addr)
	return old
}
