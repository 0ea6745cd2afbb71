package litmus

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"cord/internal/proto/core"
)

// allocGateInstances is the allocation gate's fixed sub-matrix: every 16th
// instance of the reduced full and extended matrices (the perfbench verify
// workload's input), about a tenth of a second of exploration.
func allocGateInstances() []SuiteInstance {
	all := append(FullMatrix(FullCordSuite()), ExtendedMatrix()...)
	var out []SuiteInstance
	for i := 0; i < len(all); i += 16 {
		out = append(out, all[i])
	}
	return out
}

// exploreAllocsPerState explores insts with symmetry and POR on one state
// worker, serially in the calling goroutine, and returns the heap
// allocations per explored state. The garbage collector is off while it
// counts: a collection empties fmt's printer pool, and refilling it would
// add allocations that depend on when the collector ran.
func exploreAllocsPerState(t *testing.T, insts []SuiteInstance) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	states := 0
	allocs := testing.AllocsPerRun(1, func() {
		states = 0
		for _, in := range insts {
			r, err := CheckWith(in.Test, in.Cfg, CheckOpts{Workers: 1, Symmetry: true, POR: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", in.Config, in.Test.Name, err)
			}
			states += r.States
		}
	})
	return allocs / float64(states)
}

// maxAllocsPerState bounds the allocation gate: the level with recycled
// worlds (8.71 on Go 1.24) plus about 10 %. The explorer that kept every
// world as a parent link and deep-copied a fresh one for every transition it
// tried made 89.51 allocations per state on this sub-matrix.
const maxAllocsPerState = 9.6

// TestExplorationAllocsPerState is the model checker's allocation gate.
// Exploration is deterministic, so the count repeats exactly and CI can
// gate on it where it cannot gate on wall time.
func TestExplorationAllocsPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts under -short runs are not gated")
	}
	if v := runtime.Version(); strings.HasPrefix(v, "go1.22") || strings.HasPrefix(v, "go1.23") {
		t.Skipf("%s: maps before Go 1.24 allocate overflow buckets by hash seed, so the count does not repeat", v)
	}
	insts := allocGateInstances()
	first := exploreAllocsPerState(t, insts)
	if again := exploreAllocsPerState(t, insts); again != first {
		t.Fatalf("allocations per state did not repeat: %.3f then %.3f", first, again)
	}
	t.Logf("%d instances: %.3f allocations per explored state (bound %.1f)", len(insts), first, maxAllocsPerState)
	if first > maxAllocsPerState {
		t.Fatalf("exploration makes %.3f allocations per state, bound %.1f", first, maxAllocsPerState)
	}
}

// TestRecycledWorldPoisonCatchesMutant plants a test-only mutant that
// recycles ample's chosen successor while the merged chain still uses it.
// The recycled-world poison must turn that into a panic naming the fault
// instead of letting a later clone refill a world still in use.
func TestRecycledWorldPoisonCatchesMutant(t *testing.T) {
	bt := relChain(t)
	cfg := DefaultConfig()
	if _, err := CheckWith(bt, cfg, CheckOpts{Workers: 1, POR: true}); err != nil {
		t.Fatalf("unmutated check: %v", err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "recycled world") {
			t.Fatalf("mutant check recovered %q, want a recycled-world panic", msg)
		}
	}()
	CheckWith(bt, cfg, CheckOpts{Workers: 1, POR: true, recycleChosen: true})
	t.Fatal("the mutant that recycles ample's chosen successor ran to completion")
}

// TestRecycledWorldPanics: each guarded use of a recycled world panics.
func TestRecycledWorldPanics(t *testing.T) {
	bt := relChain(t)
	cfg := DefaultConfig()
	for _, use := range []struct {
		name string
		fn   func(w *world)
	}{
		{"clone", func(w *world) { w.clone() }},
		{"key", func(w *world) { w.appendKey(nil) }},
		{"trace", func(w *world) { w.trace() }},
		{"recycle", func(w *world) { w.recycle() }},
	} {
		w := newWorld(bt, cfg).clone()
		w.recycle()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, use.name+" of a recycled world") {
					t.Errorf("%s: recovered %q", use.name, msg)
				}
			}()
			use.fn(w)
		}()
	}
}

// TestMemBudgetChargesWorldSizes: each admitted state is charged its world,
// processor, directory and in-flight message structs plus its spanning-tree
// node, and exact mode adds the key bytes. A 2-processor world with its
// directories is over 1.5 KB before any slice contents.
func TestMemBudgetChargesWorldSizes(t *testing.T) {
	bt := relChain(t)
	cfg := DefaultConfig()
	c := &checker{t: bt, cfg: cfg, cp: cfg.cordParams()}
	w := newWorld(bt, cfg)
	for len(w.net) < 2 {
		if w = c.stepProc(w, 0); w == nil {
			t.Fatal("P0 stalled before two messages were in flight")
		}
	}
	charge := func(w *world) int64 {
		return int64(unsafe.Sizeof(world{})+unsafe.Sizeof(node{})) +
			int64(len(w.procs))*int64(unsafe.Sizeof(procState{})) +
			int64(len(w.dirs))*int64(unsafe.Sizeof(dirState{})) +
			int64(len(w.net))*int64(unsafe.Sizeof(core.Msg{}))
	}
	e := &explorer{}
	if got, want := e.stateCost(w, 300), charge(w); got != want {
		t.Fatalf("fingerprint-mode charge %d, want %d", got, want)
	}
	e.exact = true
	if got, want := e.stateCost(w, 300), charge(w)+300; got != want {
		t.Fatalf("exact-mode charge %d, want %d", got, want)
	}
	if empty := charge(newWorld(bt, cfg)); len(bt.Progs) != 2 || empty < 1536 {
		t.Fatalf("%d-processor world charged %d bytes, want a 2-processor world over 1536", len(bt.Progs), empty)
	}
	b := NewMemBudget(1 << 40)
	r, err := CheckWith(bt, cfg, CheckOpts{MemBudget: b})
	if err != nil {
		t.Fatal(err)
	}
	if floor := int64(r.States) * charge(newWorld(bt, cfg)); b.Used() < floor {
		t.Fatalf("%d states charged %d bytes, want at least %d", r.States, b.Used(), floor)
	}
}
