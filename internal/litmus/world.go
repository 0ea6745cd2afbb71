package litmus

import (
	"encoding/binary"

	"cord/internal/proto/core"
)

// procState is one processor: program position, registers, and the
// protocol-core state for whichever model the processor runs (the same
// core.* state structs the simulator adapters wrap). Only the configured
// protocol's state is initialized; the others stay zero.
type procState struct {
	pc   int
	regs [MaxRegs]int

	cord core.CordProc
	so   core.SOProc
	mp   core.MPProc
	wb   core.WBProc

	// flushWait, when >= 0, is the epoch of an injected overflow-flush
	// release (§4.3) the processor stalls on before retrying the op at pc.
	flushWait int64
	// atomWait blocks the processor until a far atomic's value response.
	atomWait bool
	// barIssued/mpFlushPending drive MP's flushing-read barrier: the
	// fan-out is issued once, then the processor stalls until every
	// destination has answered.
	barIssued      bool
	mpFlushPending int
}

// dirState is one directory: the memory cells it homes plus the
// directory-side core state (CORD's tables and recycle buffers, and the MP
// ingress ordering point).
type dirState struct {
	mem  [MaxAddrs]int
	cord core.CordDir
	mp   core.MPOrderer
}

// world is a full model state: processors, directories, and the in-flight
// message multiset (the network may deliver in any order). edge records the
// spanning-tree edge the explorer first reached this state through, so a
// violation reconstructs a step-by-step counterexample trace (trace.go).
// Edges point at the parent state's node, never at its world: once a world
// is expanded nothing points at it, and it is recycled.
//
// free is the free list of the exploration worker holding the world; clone
// draws from it, and recycle returns worlds to it (DESIGN.md §10.2). A world
// outside exploration has none. recycled poisons a world that went back to
// the free list: cloning, encoding or tracing it panics.
type world struct {
	procs []procState
	dirs  []dirState
	net   []core.Msg

	edge node

	free     *freeList
	recycled bool
}

func newWorld(t Test, cfg Config) *world {
	w := &world{
		procs: make([]procState, len(t.Progs)),
		dirs:  make([]dirState, MaxDirs),
	}
	for p := range w.procs {
		ps := &w.procs[p]
		ps.flushWait = -1
		switch cfg.protoFor(p) {
		case CORDP:
			ps.cord = core.NewCordProc(MaxDirs)
		case MPP:
			ps.mp = core.NewMPProc(MaxDirs)
		}
	}
	for d := range w.dirs {
		w.dirs[d].cord = core.NewCordDir(MaxProcs)
		w.dirs[d].mp = core.NewMPOrderer(MaxProcs)
	}
	return w
}

// clone forks the world into a recycled world from w's free list (a fresh
// one when the list is empty or w has none).
func (w *world) clone() *world {
	w.live("clone")
	nw := w.free.get()
	w.copyTo(nw)
	return nw
}

// copyTo makes nw an independent copy of w's state, reusing the storage of
// every slice in nw (a world's processor and directory counts are fixed by
// its test). The exploration edge is reset; the free list carries over.
func (w *world) copyTo(nw *world) {
	if len(nw.procs) != len(w.procs) {
		nw.procs = make([]procState, len(w.procs))
	}
	if len(nw.dirs) != len(w.dirs) {
		nw.dirs = make([]dirState, len(w.dirs))
	}
	for i := range w.procs {
		w.procs[i].copyTo(&nw.procs[i])
	}
	for i := range w.dirs {
		ds, nd := &w.dirs[i], &nw.dirs[i]
		nd.mem = ds.mem
		ds.cord.CopyTo(&nd.cord)
		ds.mp.CopyTo(&nd.mp)
	}
	nw.net = append(nw.net[:0], w.net...)
	nw.edge = node{}
	nw.free = w.free
}

// copyTo makes dst an independent copy of ps, reusing dst's storage. SOProc
// is a plain value and copies with the struct.
func (ps *procState) copyTo(dst *procState) {
	cord, mp, wb := dst.cord, dst.mp, dst.wb
	*dst = *ps
	dst.cord, dst.mp, dst.wb = cord, mp, wb
	ps.cord.CopyTo(&dst.cord)
	ps.mp.CopyTo(&dst.mp)
	ps.wb.CopyTo(&dst.wb)
}

// live panics when w was recycled: something still held a world the
// explorer had given back to its free list.
func (w *world) live(op string) {
	if w.recycled {
		panic("litmus: " + op + " of a recycled world")
	}
}

// recycle gives w back to its free list. The caller guarantees nothing points
// at w: it is in no frontier and no scratch list. w is poisoned until clone
// draws it again.
func (w *world) recycle() {
	w.live("recycle")
	w.recycled = true
	w.edge = node{}
	w.free.put(w)
}

// freeListMax bounds a worker's free list. An expansion frees its own world
// and at most one state's successors and probes, so a short list already
// serves nearly every clone, and the bound keeps recycled storage from
// piling up.
const freeListMax = 64

// freeList is one exploration worker's stock of recycled worlds.
type freeList struct{ ws []*world }

// get pops a recycled world, or makes a fresh one. A nil list always makes a
// fresh one.
func (f *freeList) get() *world {
	if f == nil || len(f.ws) == 0 {
		return &world{free: f}
	}
	n := len(f.ws) - 1
	w := f.ws[n]
	f.ws[n] = nil
	f.ws = f.ws[:n]
	w.recycled = false
	return w
}

// put keeps w for reuse while the list has room; a nil or full list drops it
// (w stays poisoned for the garbage collector).
func (f *freeList) put(w *world) {
	if f != nil && len(f.ws) < freeListMax {
		f.ws = append(f.ws, w)
	}
}

// appendKey appends the state's canonical compact binary encoding for the
// visited set (DESIGN.md §10). Multisets (the network, the directory recycle
// buffers, the MP ordering-point queues, the PE tables, the WB line sets) are
// encoded order-independently by the core Append*Binary canonicalizers;
// everything else is emitted in a fixed field order, length-prefixed where
// variable, so the encoding is injective on the logical state. The edge and
// the free-list fields are exploration bookkeeping, not state, and are
// excluded.
func (w *world) appendKey(buf []byte) []byte {
	w.live("key")
	for p := range w.procs {
		ps := &w.procs[p]
		buf = binary.BigEndian.AppendUint32(buf, uint32(ps.pc))
		for _, r := range ps.regs {
			buf = binary.BigEndian.AppendUint64(buf, uint64(r))
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(ps.flushWait))
		buf = appendBool(buf, ps.atomWait)
		buf = appendBool(buf, ps.barIssued)
		buf = binary.BigEndian.AppendUint32(buf, uint32(ps.mpFlushPending))
		buf = ps.cord.AppendBinary(buf)
		buf = ps.so.AppendBinary(buf)
		buf = ps.mp.AppendBinary(buf)
		buf = ps.wb.AppendBinary(buf)
	}
	for d := range w.dirs {
		ds := &w.dirs[d]
		for _, v := range ds.mem {
			buf = binary.BigEndian.AppendUint64(buf, uint64(v))
		}
		buf = ds.cord.AppendBinary(buf)
		buf = ds.mp.AppendBinary(buf)
	}
	return core.AppendMsgSetBinary(buf, w.net)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}
