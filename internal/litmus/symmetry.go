package litmus

import (
	"bytes"
	"sort"

	"cord/internal/proto/core"
)

// Symmetry reduction (DESIGN.md §14). A litmus test usually has structural
// symmetries — IRIW's two readers are interchangeable, MP under a symmetric
// placement doesn't care which address is the flag — and every automorphism
// doubles the explored state space for no verification value. This file
// computes the test's automorphism group once per Check and canonicalizes
// every state to the minimum of its orbit's encodings, so the visited set
// stores one entry per equivalence class.
//
// An automorphism is a tuple (π_proc, π_addr, π_val, π_dir) that maps the
// test onto itself:
//
//   - relabeling processors by π_proc and addresses by π_addr carries each
//     program onto the program at its image index (same kinds, orderings and
//     register indices — registers are observable and never permuted);
//   - π_val is the value relabeling the store operands force (derived, not
//     searched), required to be a permutation fixing 0 — the initial value
//     of every cell — and the identity whenever values flow through
//     arithmetic (far atomics) or max-merged write-back tables;
//   - π_dir is induced by the placement: Home[π_addr(a)] = π_dir(Home[a]);
//     directories no address constrains never receive traffic, so their
//     images are completed arbitrarily (ascending) without affecting any
//     reachable state's encoding;
//   - the Forbidden and MustReach predicates must be invariant, verified by
//     exhaustive enumeration over the finite outcome value domain (initial 0,
//     store operands, and their closure under the fetch-add addends).
//
// Soundness: an automorphism g maps the initial state to itself, commutes
// with every transition rule (rules are index-generic; the predicates above
// pin down exactly the observable asymmetries), and preserves terminal-ness,
// deadlock, the epoch-window invariant, and — by the enumeration check — the
// outcome predicates. States in one orbit therefore have identical futures
// up to relabeling, and exploring one representative per orbit preserves
// every verdict. Terminal outcomes are expanded back over the orbit
// (permuteOutcome in noteTerminal) so the reported outcome *set* is exactly
// the unreduced one.

// perm is one automorphism. Arrays are total over the model bounds; indices
// beyond the test's used ranges map to themselves. vals == nil means the
// identity value relabeling; otherwise vals is a permutation of its own key
// set fixing 0, applied as identity outside that set.
type perm struct {
	procs [MaxProcs]int
	dirs  [MaxDirs]int
	addrs [MaxAddrs]int
	vals  map[int]int
}

func (g *perm) val(v int) int {
	if g.vals == nil {
		return v
	}
	if nv, ok := g.vals[v]; ok {
		return nv
	}
	return v
}

func (g *perm) val64(v uint64) uint64  { return uint64(g.val(int(v))) }
func (g *perm) addr64(a uint64) uint64 { return uint64(g.addrs[a]) }

func (g *perm) isIdentity() bool {
	for i, v := range g.procs {
		if v != i {
			return false
		}
	}
	for i, v := range g.dirs {
		if v != i {
			return false
		}
	}
	for i, v := range g.addrs {
		if v != i {
			return false
		}
	}
	return g.vals == nil
}

// symmetryGroupSizeCap bounds the predicate-invariance enumeration; a test
// whose outcome domain is too large to verify exhaustively gets no symmetry
// (the identity group), never an unverified one.
const symmetryAssignmentCap = 200_000

// symmetryGroup computes the non-identity automorphisms of (t, cfg), or nil
// when the test has none (or verifying them would be too expensive).
func symmetryGroup(t Test, cfg Config) []perm {
	nprocs := len(t.Progs)
	naddrs := 0
	hasAtomic, hasWB := false, false
	used := [MaxAddrs]bool{}
	for p, prog := range t.Progs {
		if cfg.protoFor(p) == WBP {
			// RecordDirty merges same-line values by max (wb.go); only
			// order-preserving value maps commute with max, so keep identity.
			hasWB = true
		}
		for _, op := range prog {
			if op.Kind != OpBar {
				used[op.Addr] = true
				if int(op.Addr)+1 > naddrs {
					naddrs = int(op.Addr) + 1
				}
			}
			if op.Kind == OpAt {
				// Fetch-add does arithmetic on values; relabeling is not
				// equivariant under +, so only the identity π_val is sound.
				hasAtomic = true
			}
		}
	}
	domain := outcomeDomain(t)
	cells := loadCells(t)
	if domain == nil || tooManyAssignments(len(domain), naddrs+len(cells)) {
		return nil
	}
	var group []perm
	for _, pp := range permutations(nprocs) {
		for _, ap := range permutations(naddrs) {
			fixesUnused := true
			for a := 0; a < naddrs; a++ {
				if !used[a] && ap[a] != a {
					fixesUnused = false
					break
				}
			}
			if !fixesUnused {
				continue // permuting never-written addresses is pure bloat
			}
			g, ok := candidatePerm(t, cfg, pp, ap, hasAtomic || hasWB)
			if !ok || g.isIdentity() {
				continue
			}
			if !predicateInvariant(t, &g, domain, cells, naddrs) {
				continue
			}
			group = append(group, g)
		}
	}
	return group
}

// outcomeDomain returns every value a terminal outcome cell can hold: 0 (the
// initial value), the store operands, and their closure under the fetch-add
// addends (each atomic fires at most once per execution, so subset sums
// cover every reachable accumulation). nil means the domain is too large to
// enumerate predicates over.
func outcomeDomain(t Test) []int {
	seen := map[int]bool{0: true}
	var adds []int
	for _, prog := range t.Progs {
		for _, op := range prog {
			switch op.Kind {
			case OpSt:
				seen[op.Val] = true
			case OpAt:
				adds = append(adds, op.Val)
			}
		}
	}
	for _, add := range adds {
		snap := make([]int, 0, len(seen))
		for v := range seen {
			snap = append(snap, v)
		}
		for _, v := range snap {
			seen[v+add] = true
		}
		if len(seen) > 12 {
			return nil
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// regCell is one observable register: some load or atomic in Progs[p]
// targets register r. All other registers stay 0 in every outcome.
type regCell struct{ p, r int }

func loadCells(t Test) []regCell {
	var cells []regCell
	seen := map[regCell]bool{}
	for p, prog := range t.Progs {
		for _, op := range prog {
			if op.Kind == OpLd || op.Kind == OpAt {
				rc := regCell{p, op.Reg}
				if !seen[rc] {
					seen[rc] = true
					cells = append(cells, rc)
				}
			}
		}
	}
	return cells
}

func tooManyAssignments(base, cells int) bool {
	n := 1
	for i := 0; i < cells; i++ {
		n *= base
		if n > symmetryAssignmentCap {
			return true
		}
	}
	return false
}

// permutations returns every permutation of [0, n).
func permutations(n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return out
}

// candidatePerm checks the structural conditions for (pp, ap) and derives
// the forced value and directory relabelings. It does NOT check predicate
// invariance — that is the caller's enumeration pass.
func candidatePerm(t Test, cfg Config, pp, ap []int, valIdentityOnly bool) (perm, bool) {
	var g perm
	for i := range g.procs {
		g.procs[i] = i
	}
	for i := range g.dirs {
		g.dirs[i] = i
	}
	for i := range g.addrs {
		g.addrs[i] = i
	}
	for p, tgt := range pp {
		g.procs[p] = tgt
	}
	for a, tgt := range ap {
		g.addrs[a] = tgt
	}
	// The protocol assignment is part of the system, not the test: a CORD
	// core is not interchangeable with an SO core.
	for p := range pp {
		if cfg.protoFor(p) != cfg.protoFor(pp[p]) {
			return g, false
		}
	}
	// Programs must map onto each other op-for-op, deriving π_val from the
	// store operands.
	vals := map[int]int{}
	hit := map[int]bool{}
	for p, prog := range t.Progs {
		img := t.Progs[pp[p]]
		if len(prog) != len(img) {
			return g, false
		}
		for i, a := range prog {
			b := img[i]
			if a.Kind != b.Kind || a.Ord != b.Ord || a.Reg != b.Reg {
				return g, false
			}
			if a.Kind != OpBar && g.addrs[a.Addr] != int(b.Addr) {
				return g, false
			}
			if a.Kind == OpSt || a.Kind == OpAt {
				if prev, ok := vals[a.Val]; ok {
					if prev != b.Val {
						return g, false
					}
				} else {
					if hit[b.Val] {
						return g, false // not injective
					}
					vals[a.Val] = b.Val
					hit[b.Val] = true
				}
			}
		}
	}
	// π_val must be a permutation of its own key set (so the implicit
	// identity outside it cannot collide) and must fix 0, every cell's
	// initial value.
	for v := range hit {
		if _, ok := vals[v]; !ok {
			return g, false
		}
	}
	if v, ok := vals[0]; ok && v != 0 {
		return g, false
	}
	identity := true
	for k, v := range vals {
		if k != v {
			identity = false
			break
		}
	}
	if identity {
		vals = nil
	} else if valIdentityOnly {
		return g, false
	}
	g.vals = vals
	// π_dir induced by the placement: Home[π_addr(a)] == π_dir(Home[a]).
	var dmap [MaxDirs]int
	var dhit [MaxDirs]bool
	for i := range dmap {
		dmap[i] = -1
	}
	for a := 0; a < len(ap) && a < len(t.Home); a++ {
		src, dst := t.Home[a], t.Home[g.addrs[a]]
		switch {
		case dmap[src] == -1:
			if dhit[dst] {
				return g, false
			}
			dmap[src], dhit[dst] = dst, true
		case dmap[src] != dst:
			return g, false
		}
	}
	// Unconstrained directories never receive traffic (every message's Dir
	// is some address's home); complete them ascending — any completion
	// leaves reachable encodings unchanged, since those directories hold
	// identical initial state forever.
	for d := range dmap {
		if dmap[d] != -1 {
			continue
		}
		for tgt := range dhit {
			if !dhit[tgt] {
				dmap[d], dhit[tgt] = tgt, true
				break
			}
		}
	}
	g.dirs = dmap
	return g, true
}

// predicateInvariant exhaustively verifies Forbidden (and MustReach) agree
// on every outcome and its image under g, over the full outcome domain.
func predicateInvariant(t Test, g *perm, domain []int, cells []regCell, naddrs int) bool {
	ncells := naddrs + len(cells)
	idx := make([]int, ncells)
	for {
		var o Outcome
		for a := 0; a < naddrs; a++ {
			o.Mem[a] = domain[idx[a]]
		}
		for i, rc := range cells {
			o.Regs[rc.p][rc.r] = domain[idx[naddrs+i]]
		}
		po := permuteOutcome(o, g)
		if t.Forbidden(o) != t.Forbidden(po) {
			return false
		}
		if t.MustReach != nil && t.MustReach(o) != t.MustReach(po) {
			return false
		}
		i := 0
		for ; i < ncells; i++ {
			idx[i]++
			if idx[i] < len(domain) {
				break
			}
			idx[i] = 0
		}
		if i == ncells {
			return true
		}
	}
}

// permuteOutcome applies g to a terminal outcome: registers move with their
// processor (indices within the file are observable and fixed), memory cells
// move with their address, values through π_val.
func permuteOutcome(o Outcome, g *perm) Outcome {
	var po Outcome
	for a := 0; a < MaxAddrs; a++ {
		po.Mem[g.addrs[a]] = g.val(o.Mem[a])
	}
	for p := 0; p < MaxProcs; p++ {
		tp := g.procs[p]
		for r := 0; r < MaxRegs; r++ {
			po.Regs[tp][r] = g.val(o.Regs[p][r])
		}
	}
	return po
}

// permuteWorld applies g to a reachable state, writing the (equally
// reachable) image state into nw, whose storage it reuses, and returns nw.
// Epochs, sequence numbers, counters and program positions are
// relabeling-invariant and copy through; indices and values map through g.
// The exploration edge is not carried.
func (c *checker) permuteWorld(w *world, g *perm, nw *world) *world {
	if len(nw.procs) != len(w.procs) {
		nw.procs = make([]procState, len(w.procs))
	}
	if len(nw.dirs) != len(w.dirs) {
		nw.dirs = make([]dirState, len(w.dirs))
	}
	for p := range w.procs {
		permProc(&nw.procs[g.procs[p]], &w.procs[p], g)
	}
	for d := range w.dirs {
		permDir(&nw.dirs[g.dirs[d]], &w.dirs[d], g)
	}
	nw.net = nw.net[:0]
	for _, m := range w.net {
		nw.net = append(nw.net, permMsg(m, g))
	}
	return nw
}

func permProc(np, ps *procState, g *perm) {
	ps.copyTo(np)
	for r, v := range ps.regs {
		np.regs[r] = g.val(v)
	}
	for d := range ps.cord.Cnt {
		np.cord.Cnt[g.dirs[d]] = ps.cord.Cnt[d]
	}
	for d := range ps.cord.ByDir {
		np.cord.ByDir[g.dirs[d]] = append(np.cord.ByDir[g.dirs[d]][:0], ps.cord.ByDir[d]...)
	}
	for d, s := range ps.mp.Seq {
		np.mp.Seq[g.dirs[d]] = s
	}
	switch ps.proto {
	case CORDP:
		np.cord.WC.Relabel(g.addr64)
	case SOP:
		np.so.WC.Relabel(g.addr64)
	case MPP:
		np.mp.WC.Relabel(g.addr64)
	case WBP:
		np.wb = ps.wb.Relabel(g.addr64, g.val64)
	}
}

func permDir(nd, ds *dirState, g *perm) {
	for a, v := range ds.mem {
		nd.mem[g.addrs[a]] = g.val(v)
	}
	nd.cord.Largest = resize(nd.cord.Largest, len(ds.cord.Largest))
	for p, l := range ds.cord.Largest {
		nd.cord.Largest[g.procs[p]] = l
	}
	nd.cord.Cnt = nd.cord.Cnt[:0]
	for _, pe := range ds.cord.Cnt {
		nd.cord.Cnt = append(nd.cord.Cnt, core.PE{Proc: g.procs[pe.Proc], Ep: pe.Ep, N: pe.N})
	}
	nd.cord.Noti = nd.cord.Noti[:0]
	for _, pe := range ds.cord.Noti {
		nd.cord.Noti = append(nd.cord.Noti, core.PE{Proc: g.procs[pe.Proc], Ep: pe.Ep, N: pe.N})
	}
	nd.cord.PendingRel = permMsgs(nd.cord.PendingRel[:0], ds.cord.PendingRel, g)
	nd.cord.PendingReq = permMsgs(nd.cord.PendingReq[:0], ds.cord.PendingReq, g)
	nd.mp.Next = resize(nd.mp.Next, len(ds.mp.Next))
	for p, s := range ds.mp.Next {
		nd.mp.Next[g.procs[p]] = s
	}
	nd.mp.Pending = permMsgs(nd.mp.Pending[:0], ds.mp.Pending, g)
	nd.mp.Flushes = permMsgs(nd.mp.Flushes[:0], ds.mp.Flushes, g)
}

// resize returns s with length n, reusing its storage when it is long
// enough.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	return s[:n]
}

// permMsgs appends the images of ms under g to buf.
func permMsgs(buf, ms []core.Msg, g *perm) []core.Msg {
	for _, m := range ms {
		buf = append(buf, permMsg(m, g))
	}
	return buf
}

// permMsg relabels one message. Only the fields a kind actually sets are
// mapped — Dir/Dst/Addr left zero by a rule must stay zero, or the image
// would not be a message the rules can produce and the encoding would drift
// from its true equivalence class.
func permMsg(m core.Msg, g *perm) core.Msg {
	m.Src = g.procs[m.Src]
	switch m.Kind {
	case core.MRelaxed, core.MSOStore, core.MMPStore, core.MWBGetM, core.MWBData, core.MWBFlag:
		m.Dir = g.dirs[m.Dir]
		m.Addr = g.addr64(m.Addr)
	case core.MRelease:
		m.Dir = g.dirs[m.Dir]
		if !m.Barrier {
			m.Addr = g.addr64(m.Addr)
		}
	case core.MReqNotify:
		m.Dir = g.dirs[m.Dir]
		m.Dst = g.dirs[m.Dst]
	case core.MNotify, core.MAck, core.MSOAck, core.MMPFlush:
		m.Dir = g.dirs[m.Dir]
	case core.MWBFill:
		m.Addr = g.addr64(m.Addr)
	}
	m.Val = g.val64(m.Val) // π_val fixes 0, so unset Val fields are stable
	return m
}

// key appends w's canonical encoding — the minimum over the automorphism
// orbit — into sc's key buffers and returns it. With an empty group this is
// exactly appendKey. Each orbit image is written into sc's image world. The
// returned slice aliases sc and is valid until the next call.
func (c *checker) key(w *world, sc *scratch) []byte {
	sc.a = w.appendKey(sc.a[:0])
	for i := range c.group {
		if sc.img == nil {
			sc.img = &world{}
		}
		pw := c.permuteWorld(w, &c.group[i], sc.img)
		sc.b = pw.appendKey(sc.b[:0])
		if bytes.Compare(sc.b, sc.a) < 0 {
			sc.a, sc.b = sc.b, sc.a
		}
	}
	return sc.a
}
