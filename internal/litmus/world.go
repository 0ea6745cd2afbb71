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
// message multiset (the network may deliver in any order). parent and step
// record the spanning-tree edge the explorer first reached this state
// through, so a violation reconstructs a step-by-step counterexample trace.
type world struct {
	procs []procState
	dirs  []dirState
	net   []core.Msg

	parent *world
	step   Step
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

// clone forks the world; the core state structs provide their own deep
// copies (SOProc is a plain value and copies with the struct).
func (w *world) clone() *world {
	nw := &world{
		procs: append([]procState(nil), w.procs...),
		dirs:  append([]dirState(nil), w.dirs...),
		net:   append([]core.Msg(nil), w.net...),
	}
	for i := range nw.procs {
		ps := &nw.procs[i]
		ps.cord = ps.cord.Clone()
		ps.mp = ps.mp.Clone()
		ps.wb = ps.wb.Clone()
	}
	for i := range nw.dirs {
		ds := &nw.dirs[i]
		ds.cord = ds.cord.Clone()
		ds.mp = ds.mp.Clone()
	}
	return nw
}

// appendKey appends the state's canonical compact binary encoding for the
// visited set (DESIGN.md §10). Multisets (the network, the directory recycle
// buffers, the MP ordering-point queues, the PE tables, the WB line sets) are
// encoded order-independently by the core Append*Binary canonicalizers;
// everything else is emitted in a fixed field order, length-prefixed where
// variable, so the encoding is injective on the logical state. The parent
// and step fields are exploration bookkeeping, not state, and are excluded.
func (w *world) appendKey(buf []byte) []byte {
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
