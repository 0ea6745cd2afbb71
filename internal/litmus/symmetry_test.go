package litmus

import (
	"math/rand"
	"testing"
)

// reachableSample collects up to limit reachable states of (t, cfg) by plain
// BFS over the full successor relation, deduplicated on unreduced encodings —
// no symmetry, no POR — so the sample is the ground-truth state space.
func reachableSample(c *checker, t Test, cfg Config, limit int) []*world {
	root := newWorld(t, cfg)
	seen := map[string]bool{string(root.appendKey(nil)): true}
	frontier := []*world{root}
	states := []*world{root}
	for len(frontier) > 0 && len(states) < limit {
		w := frontier[0]
		frontier = frontier[1:]
		for _, s := range c.successors(w, nil) {
			k := string(s.appendKey(nil))
			if seen[k] {
				continue
			}
			seen[k] = true
			states = append(states, s)
			frontier = append(frontier, s)
		}
	}
	return states
}

// TestCanonicalKeyOrbitInvariant is the soundness property the visited set
// relies on: for any reachable state w and any verified automorphism g, the
// permuted state g(w) canonicalizes to exactly the same key (and hence the
// same 64-bit fingerprint), so an orbit can never split across visited-set
// entries. Random states and random group elements, fixed seed.
func TestCanonicalKeyOrbitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	exercised := 0
	for _, inst := range FullMatrix(BaseTests()) {
		if exercised >= 8 {
			break
		}
		c := &checker{t: inst.Test, cfg: inst.Cfg, cp: inst.Cfg.cordParams()}
		c.group = symmetryGroup(inst.Test, inst.Cfg)
		if len(c.group) == 0 {
			continue
		}
		exercised++
		states := reachableSample(c, inst.Test, inst.Cfg, 400)
		k1, k2 := &scratch{}, &scratch{}
		for try := 0; try < 80; try++ {
			w := states[rng.Intn(len(states))]
			g := &c.group[rng.Intn(len(c.group))]
			pw := c.permuteWorld(w, g, &world{})
			ref := append([]byte(nil), c.key(w, k1)...)
			if got := c.key(pw, k2); string(got) != string(ref) {
				t.Fatalf("%s/%s: canonical key of permuted state differs from original",
					inst.Config, inst.Test.Name)
			}
		}
	}
	if exercised == 0 {
		t.Fatal("no matrix instance has a nontrivial automorphism group")
	}
}

// TestSymmetryGroupFindsProcSwap: two identical single-reader programs under
// a value-symmetric predicate admit the processor swap; the same structure
// under a predicate that singles out processor 0 must get the empty group —
// predicate invariance is verified, not assumed.
func TestSymmetryGroupFindsProcSwap(t *testing.T) {
	// The store puts 1 into the outcome value domain; with loads alone every
	// register is provably 0 and any predicate is vacuously invariant.
	mk := func(forbidden func(Outcome) bool) Test {
		return Test{
			Name:      "swap-probe",
			Progs:     [][]Op{{St(1, 1), Ld(0, 0)}, {St(1, 1), Ld(0, 0)}},
			Home:      []int{0, 0},
			Forbidden: forbidden,
		}
	}
	sym := mk(func(o Outcome) bool { return o.Regs[0][0] == 1 && o.Regs[1][0] == 1 })
	if g := symmetryGroup(sym, DefaultConfig()); len(g) == 0 {
		t.Fatal("symmetric two-reader test: processor swap not found")
	}
	asym := mk(func(o Outcome) bool { return o.Regs[0][0] == 1 })
	if g := symmetryGroup(asym, DefaultConfig()); len(g) != 0 {
		t.Fatalf("processor-asymmetric predicate admitted %d automorphisms", len(g))
	}
}

// TestSymmetryValuePermutation: symmetric writers with distinct store
// operands force a non-identity value relabeling (1<->2, fixing 0); adding a
// fetch-add — whose arithmetic is not equivariant under relabeling — must
// drop the automorphism entirely.
func TestSymmetryValuePermutation(t *testing.T) {
	writers := Test{
		Name:      "val-probe",
		Progs:     [][]Op{{St(0, 1)}, {St(0, 2)}},
		Home:      []int{0},
		Forbidden: func(o Outcome) bool { return false },
	}
	g := symmetryGroup(writers, DefaultConfig())
	if len(g) == 0 {
		t.Fatal("value-symmetric writers: swap with derived pi_val not found")
	}
	foundVals := false
	for i := range g {
		if g[i].vals != nil && g[i].vals[1] == 2 && g[i].vals[2] == 1 {
			foundVals = true
		}
	}
	if !foundVals {
		t.Fatal("no automorphism carries the forced value relabeling 1<->2")
	}

	atomics := Test{
		Name:      "atomic-probe",
		Progs:     [][]Op{{St(0, 1), FAdd(1, 3, 0)}, {St(0, 2), FAdd(1, 3, 0)}},
		Home:      []int{0, 0},
		Forbidden: func(o Outcome) bool { return false },
	}
	if g := symmetryGroup(atomics, DefaultConfig()); len(g) != 0 {
		t.Fatalf("fetch-add test admitted %d automorphisms needing non-identity pi_val", len(g))
	}
}

// TestSymmetryPreservesOutcomeSet: for matrix instances with nontrivial
// groups, checking with Symmetry must report the exact verdicts AND the
// exact outcome set of the unreduced run — orbit expansion in noteTerminal
// has to undo the quotient on the observables.
func TestSymmetryPreservesOutcomeSet(t *testing.T) {
	exercised := 0
	for _, inst := range FullMatrix(BaseTests()) {
		if exercised >= 10 {
			break
		}
		if len(symmetryGroup(inst.Test, inst.Cfg)) == 0 {
			continue
		}
		exercised++
		raw, err := Check(inst.Test, inst.Cfg)
		if err != nil {
			t.Fatalf("%s/%s raw: %v", inst.Config, inst.Test.Name, err)
		}
		red, err := CheckWith(inst.Test, inst.Cfg, CheckOpts{Symmetry: true})
		if err != nil {
			t.Fatalf("%s/%s symmetry: %v", inst.Config, inst.Test.Name, err)
		}
		if d := diffResults(red, raw); d != "" {
			t.Fatalf("%s/%s: symmetry changed observables: %s", inst.Config, inst.Test.Name, d)
		}
		if red.States > raw.States {
			t.Fatalf("%s/%s: symmetry grew the state space (%d > %d)",
				inst.Config, inst.Test.Name, red.States, raw.States)
		}
	}
	if exercised == 0 {
		t.Fatal("no matrix instance has a nontrivial automorphism group")
	}
}
