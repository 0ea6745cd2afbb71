package litmus

import (
	"bytes"
	"testing"
)

// movedField is one piece of processor-side issue state that lives in a core
// struct: the issued waits and the write-combining buffers. set changes it
// from its initial value on processor p; get reads it back (as a comparable
// value) and addr reports the model address it holds, if any.
type movedField struct {
	name  string
	proto ProtoKind
	set   func(ps *procState)
	get   func(ps *procState) any
	addr  func(ps *procState) (uint64, bool)
}

func movedFields() []movedField {
	noAddr := func(*procState) (uint64, bool) { return 0, false }
	return []movedField{
		{"cord.FlushWait", CORDP, func(ps *procState) { ps.cord.FlushWait = 3 },
			func(ps *procState) any { return ps.cord.FlushWait }, noAddr},
		{"cord.AtomWait", CORDP, func(ps *procState) { ps.cord.AtomWait = true },
			func(ps *procState) any { return ps.cord.AtomWait }, noAddr},
		{"cord.WC", CORDP, func(ps *procState) { ps.cord.WC.Set(1) },
			func(ps *procState) any { return ps.cord.WC },
			func(ps *procState) (uint64, bool) { return ps.cord.WC.Addr, ps.cord.WC.Valid }},
		{"so.AtomWait", SOP, func(ps *procState) { ps.so.AtomWait = true },
			func(ps *procState) any { return ps.so.AtomWait }, noAddr},
		{"so.WC", SOP, func(ps *procState) { ps.so.WC.Set(1) },
			func(ps *procState) any { return ps.so.WC },
			func(ps *procState) (uint64, bool) { return ps.so.WC.Addr, ps.so.WC.Valid }},
		{"mp.AtomWait", MPP, func(ps *procState) { ps.mp.AtomWait = true },
			func(ps *procState) any { return ps.mp.AtomWait }, noAddr},
		{"mp.BarIssued", MPP, func(ps *procState) { ps.mp.BarIssued = true },
			func(ps *procState) any { return ps.mp.BarIssued }, noAddr},
		{"mp.FlushPending", MPP, func(ps *procState) { ps.mp.FlushPending = 2 },
			func(ps *procState) any { return ps.mp.FlushPending }, noAddr},
		{"mp.WC", MPP, func(ps *procState) { ps.mp.WC.Set(1) },
			func(ps *procState) any { return ps.mp.WC },
			func(ps *procState) (uint64, bool) { return ps.mp.WC.Addr, ps.mp.WC.Valid }},
		{"wb.AtomWait", WBP, func(ps *procState) { ps.wb.AtomWait = true },
			func(ps *procState) any { return ps.wb.AtomWait }, noAddr},
	}
}

// TestMovedIssueStateEncoded checks, for every issued wait and
// write-combining buffer the core structs hold, that the visited-set key
// tells it apart, that copying a world keeps it, and that the symmetry
// relabeling maps any address it holds.
func TestMovedIssueStateEncoded(t *testing.T) {
	tst := Test{Name: "moved", Progs: [][]Op{{St(X, 1)}, {St(Y, 1)}}, Home: []int{0, 1}}
	// g swaps the two processors, the two addresses and the two directories.
	g := &perm{procs: [MaxProcs]int{1, 0, 2, 3}, dirs: [MaxDirs]int{1, 0, 2},
		addrs: [MaxAddrs]int{1, 0, 2, 3}}
	for _, f := range movedFields() {
		cfg := DefaultConfig()
		cfg.Protos = []ProtoKind{f.proto}
		base := newWorld(tst, cfg)
		moved := base.clone()
		f.set(&moved.procs[0])
		if f.get(&moved.procs[0]) == f.get(&base.procs[0]) {
			t.Fatalf("%s: set left the field at its initial value", f.name)
		}
		if bytes.Equal(base.appendKey(nil), moved.appendKey(nil)) {
			t.Errorf("%s: worlds differing only in the field encode alike", f.name)
		}
		if cp := moved.clone(); f.get(&cp.procs[0]) != f.get(&moved.procs[0]) {
			t.Errorf("%s: copy lost the field", f.name)
		}
		c := &checker{t: tst, cfg: cfg, cp: cfg.cordParams()}
		img := c.permuteWorld(moved, g, &world{})
		if f.get(&img.procs[1]) == f.get(&img.procs[0]) {
			t.Errorf("%s: relabeling did not carry the field to processor 1", f.name)
		}
		a, ok := f.addr(&moved.procs[0])
		if !ok {
			if f.get(&img.procs[1]) != f.get(&moved.procs[0]) {
				t.Errorf("%s: relabeling changed a field that holds no address", f.name)
			}
			continue
		}
		if got, _ := f.addr(&img.procs[1]); got != uint64(g.addrs[a]) {
			t.Errorf("%s: relabeled address %d, want %d", f.name, got, g.addrs[a])
		}
	}
}
