package proto

import (
	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// DirBase is the protocol-independent half of a directory slice: the
// functional LLC contents for synchronization flags, and the waiter list
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

	waiters map[memsys.Addr][]pollWaiter
}

// pollWaiter is a parked MLoadReq and the core it came from.
type pollWaiter struct {
	src noc.NodeID
	req *core.Msg
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
	d.waiters = make(map[memsys.Addr][]pollWaiter)
	if sys.stores != nil {
		sys.stores[id] = d.Store
	}
}

// CommitValue writes v to addr in the LLC slice, monotonically (flags are
// counters; a late-arriving older store must not regress the value), and
// wakes any satisfied pollers. The caller is responsible for modeling the
// commit latency before invoking it.
func (d *DirBase) CommitValue(addr memsys.Addr, v uint64) {
	if cur := d.Store.Read(addr); v > cur {
		d.Store.Write(addr, v)
	}
	if rec := d.Obs; rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KCommit,
			Src: d.ID.Obs(), Addr: uint64(addr), Seq: v})
	}
	d.wake(addr)
}

func (d *DirBase) wake(addr memsys.Addr) {
	ws := d.waiters[addr]
	if len(ws) == 0 {
		return
	}
	val := d.Store.Read(addr)
	rest := ws[:0]
	for _, w := range ws {
		if val >= w.req.Val {
			d.respond(w.src, w.req, val)
		} else {
			rest = append(rest, w)
		}
	}
	if len(rest) == 0 {
		delete(d.waiters, addr)
	} else {
		d.waiters[addr] = rest
	}
}

func (d *DirBase) respond(src noc.NodeID, req *core.Msg, val uint64) {
	d.Sys.Net.Send(d.ID, src, stats.ClassLoadResp, LoadRespBytes,
		&core.Msg{Kind: core.MLoadResp, Src: req.Src, Dir: d.Ix, Addr: req.Addr,
			Val: val, Tag: req.Tag})
}

// HandleLoadReq services an acquire poll from core src: respond after the
// LLC access latency if the flag already satisfies the wait, otherwise park
// the waiter until a commit satisfies it. Protocol directory handlers route
// MLoadReq messages here.
func (d *DirBase) HandleLoadReq(src noc.NodeID, m *core.Msg) {
	addr := memsys.Addr(m.Addr)
	d.Eng.Schedule(d.Sys.Timing.LLCCycles, func() {
		if val := d.Store.Read(addr); val >= m.Val {
			d.respond(src, m, val)
			return
		}
		d.waiters[addr] = append(d.waiters[addr], pollWaiter{src: src, req: m})
	})
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
