package litmus

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"cord/internal/proto/core"
)

// checker binds a test and configuration during exploration. cp is the
// config resolved into the shared core-rule parameters — the same struct
// the simulator's cord adapter resolves its Config into. group is the
// test's automorphism group when symmetry reduction is on (symmetry.go);
// por enables ample-set reduction (por.go).
type checker struct {
	t   Test
	cfg Config
	cp  core.CordParams

	group         []perm
	por           bool
	porUnsound    bool
	recycleChosen bool
}

// CheckOpts tunes exploration. The zero value is a serial, fingerprint-mode
// check with no memory budget — behaviourally identical to Check.
type CheckOpts struct {
	// Workers is the number of state-exploration goroutines (<=1 = serial).
	// Verdicts are identical at any worker count: exploration is exhaustive
	// over the same canonically-deduplicated state space, so the reachable
	// outcome set, the violation flags and the visited-state count do not
	// depend on the schedule (DESIGN.md §10). This stays true under Symmetry
	// and POR: canonical keys quotient the schedule out of the visited set,
	// and ample choices are functions of the state class (DESIGN.md §14).
	Workers int
	// Exact keeps every full canonical state key alongside the 64-bit
	// fingerprints, deciding membership by key and auditing fingerprint
	// collisions (Result.Collisions).
	Exact bool
	// Symmetry canonicalizes states up to the test's verified automorphisms
	// (processor/address/value/directory relabelings that map the programs,
	// placement and predicates onto themselves) before fingerprinting, so
	// each orbit costs one visited entry. Verdicts are unchanged; reported
	// outcome sets are expanded back over the orbit.
	Symmetry bool
	// POR prunes commuting interleavings with singleton ample sets over
	// provably-independent transitions. Verdicts, outcome sets, deadlocks
	// and window violations are preserved exactly (por.go).
	POR bool
	// MemBudget, when non-nil, bounds the approximate bytes retained across
	// every Check sharing it; exceeding it aborts with an error.
	MemBudget *MemBudget

	// porUnsound (tests only) breaks the independence relation on purpose,
	// treating racing posted-store deliveries as commuting; por_test.go uses
	// it to show unsound independence loses real forbidden outcomes.
	porUnsound bool
	// recycleChosen (tests only) recycles ample's chosen successor while the
	// chain still uses it; recycle_test.go uses it to show the recycled-world
	// poison catches a world recycled too early.
	recycleChosen bool
}

// MemBudget is a byte budget shared across concurrent checks (cordcheck
// -mem-limit). The accounting is approximate — each admitted state's world,
// processor, directory and in-flight message structs (worldBytes) plus the
// bytes of retained keys — and cooperative: checks abort with an error once
// the budget is exhausted.
type MemBudget struct {
	limit int64
	used  atomic.Int64
}

// NewMemBudget returns a budget of the given size in bytes.
func NewMemBudget(bytes int64) *MemBudget { return &MemBudget{limit: bytes} }

// Used reports the bytes charged so far.
func (b *MemBudget) Used() int64 { return b.used.Load() }

// charge records n approximate bytes; false reports budget exhaustion.
// A nil budget admits everything.
func (b *MemBudget) charge(n int64) bool {
	if b == nil {
		return true
	}
	return b.used.Add(n) <= b.limit
}

// worldBytes is the MemBudget charge for admitting w: its world struct plus
// one procState per processor, one dirState per directory and one core.Msg
// per in-flight message, and the spanning-tree node that outlives the world.
// Slice contents inside the core state structs are not counted.
func worldBytes(w *world) int64 {
	return int64(unsafe.Sizeof(world{})) + int64(unsafe.Sizeof(node{})) +
		int64(len(w.procs))*int64(unsafe.Sizeof(procState{})) +
		int64(len(w.dirs))*int64(unsafe.Sizeof(dirState{})) +
		int64(len(w.net))*int64(unsafe.Sizeof(core.Msg{}))
}

// Check exhaustively explores every interleaving of processor steps and
// message deliveries and returns the reachable terminal outcomes plus the
// safety verdicts. It is CheckWith with default options (serial).
func Check(t Test, cfg Config) (Result, error) {
	return CheckWith(t, cfg, CheckOpts{})
}

// CheckWith is Check with explicit exploration options: parallel BFS over a
// sharded fingerprint visited set, per-worker LIFO frontiers with batched
// hand-off through a shared pool, and spanning-tree counterexample recording.
func CheckWith(t Test, cfg Config, opts CheckOpts) (Result, error) {
	if err := t.Validate(); err != nil {
		return Result{}, err
	}
	maxStates := int64(cfg.MaxStates)
	if maxStates == 0 {
		maxStates = 4_000_000
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	c := &checker{t: t, cfg: cfg, cp: cfg.cordParams(),
		por: opts.POR, porUnsound: opts.porUnsound, recycleChosen: opts.recycleChosen}
	if opts.Symmetry {
		c.group = symmetryGroup(t, cfg)
	}
	e := &explorer{
		c:         c,
		visited:   newVisitedSet(workers, opts.Exact),
		exact:     opts.Exact,
		maxStates: maxStates,
		budget:    opts.MemBudget,
		outcomes:  make(map[Outcome]struct{}),
	}
	e.cond = sync.NewCond(&e.mu)

	root := newWorld(t, cfg)
	key := c.key(root, &scratch{})
	e.visited.Add(core.Hash64(key), key)
	if !e.budget.charge(e.stateCost(root, len(key))) {
		return Result{Test: t, Config: cfg}, fmt.Errorf("litmus %s: memory budget exceeded", t.Name)
	}
	e.pending.Store(1)
	e.global = append(e.global, root)

	// The last worker runs in the calling goroutine, so a serial check
	// starts no goroutine and its allocation count repeats exactly.
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.run()
		}()
	}
	e.run()
	wg.Wait()
	outcomes := make(map[string]Outcome, len(e.outcomes))
	for out := range e.outcomes {
		outcomes[out.String()] = out
	}

	res := Result{
		Test:           t,
		Config:         cfg,
		States:         int(e.states.Load()),
		Collisions:     int(e.collisions.Load()),
		PeakFrontier:   int(e.peak.Load()),
		Outcomes:       outcomes,
		Forbidden:      e.forbidden,
		Deadlock:       e.deadlock,
		WindowViolated: e.window,
		Reached:        e.reached,
	}
	if e.err != nil {
		return res, e.err
	}
	if e.haveBad {
		cx := &Counterexample{
			Kind:    e.badKind,
			Steps:   e.bad.trace(),
			StateFP: core.Hash64([]byte(e.badKey)),
		}
		if cx.Kind == CxForbidden {
			cx.Outcome = e.badOutcome
		}
		// Confirm before reporting: the trace must re-execute through the
		// core rules to the same violating state.
		if err := cx.confirm(e.c); err != nil {
			return res, err
		}
		res.Counterexample = cx
	}
	return res, nil
}

// explorer is the shared state of one CheckWith run's worker pool.
type explorer struct {
	c       *checker
	visited *visitedSet
	exact   bool

	maxStates int64
	budget    *MemBudget

	states     atomic.Int64
	collisions atomic.Int64
	pending    atomic.Int64 // enqueued-but-unfinished states
	peak       atomic.Int64 // high-water mark of pending (schedule-dependent)
	aborted    atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	global []*world // shared hand-off pool (batched)
	done   bool
	err    error

	// outcomes is the reachable terminal outcome set, keyed by value; the
	// Result's string keys are formatted once, after exploration.
	outcomes  map[Outcome]struct{}
	forbidden bool
	deadlock  bool
	window    bool
	reached   bool

	// bad is the canonically-selected violating state's edge: minimal kind,
	// then minimal canonical state key, so the reported counterexample's bad
	// state is independent of worker count and schedule. The edge and the
	// outcome are copied out of the world, which is recycled like any other.
	haveBad    bool
	bad        node
	badKind    CounterexampleKind
	badKey     string
	badOutcome Outcome
}

// Batching constants: a worker keeps up to localMax states on its private
// LIFO frontier and hands the oldest half to the shared pool when it
// overflows; an idle worker takes up to stealBatch states in one critical
// section.
const (
	localMax   = 128
	stealBatch = 32
)

// stateCost approximates the retained bytes of one visited state.
func (e *explorer) stateCost(w *world, keyLen int) int64 {
	c := worldBytes(w)
	if e.exact {
		c += int64(keyLen)
	}
	return c
}

// scratch is one exploration worker's reusable storage (DESIGN.md §10.2):
// the canonical-key buffer pair and a third buffer for ample's best key, the
// world key writes orbit images into, the candidate and successor lists, the
// processor successors ample built for probed (successors reuses them rather
// than stepping each processor again), the slab spanning-tree nodes are
// carved from, and the free list of recycled worlds.
type scratch struct {
	a, b, best []byte
	img        *world

	cands, succ []*world
	probes      []*world
	probed      *world

	nodes []node
	free  freeList
}

// nodeSlab is how many spanning-tree nodes one slab allocation holds.
const nodeSlab = 32

// node returns a new spanning-tree node holding w's edge.
func (sc *scratch) node(w *world) *node {
	if len(sc.nodes) == 0 {
		sc.nodes = make([]node, nodeSlab)
	}
	n := &sc.nodes[0]
	sc.nodes = sc.nodes[1:]
	*n = w.edge
	return n
}

// run is one worker: pop from the local frontier, refill from the shared
// pool when dry, expand, and hand off surplus work. A popped world joins
// this worker's free list, so the clones made from it recycle here.
func (e *explorer) run() {
	var local []*world
	sc := &scratch{}
	for {
		if e.aborted.Load() {
			return
		}
		var w *world
		if n := len(local); n > 0 {
			w = local[n-1]
			local[n-1] = nil
			local = local[:n-1]
		} else if w = e.take(&local); w == nil {
			return
		}
		w.free = &sc.free
		e.expand(w, &local, sc)
		if e.pending.Add(-1) == 0 {
			e.finish(nil)
			return
		}
		if len(local) > localMax {
			local = e.offload(local)
		}
	}
}

// take blocks until shared work or termination; it refills the caller's
// local frontier with a batch and returns one state to expand.
func (e *explorer) take(local *[]*world) *world {
	e.mu.Lock()
	for len(e.global) == 0 && !e.done {
		e.cond.Wait()
	}
	n := len(e.global)
	if n == 0 {
		e.mu.Unlock()
		return nil
	}
	k := stealBatch
	if k > n {
		k = n
	}
	batch := e.global[n-k:]
	w := batch[k-1]
	*local = append(*local, batch[:k-1]...)
	for i := range batch {
		batch[i] = nil
	}
	e.global = e.global[:n-k]
	e.mu.Unlock()
	return w
}

// offload moves the oldest half of an overflowing local frontier to the
// shared pool. Oldest-first hand-off gives thieves the shallow states with
// the largest subtrees, the classic work-stealing heuristic.
func (e *explorer) offload(local []*world) []*world {
	half := len(local) / 2
	e.mu.Lock()
	e.global = append(e.global, local[:half]...)
	e.mu.Unlock()
	e.cond.Broadcast()
	rest := copy(local, local[half:])
	for i := rest; i < len(local); i++ {
		local[i] = nil
	}
	return local[:rest]
}

// finish terminates the pool, recording the first error (nil for clean
// completion).
func (e *explorer) finish(err error) {
	e.aborted.Store(err != nil)
	e.mu.Lock()
	if err != nil && e.err == nil {
		e.err = err
	}
	e.done = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

// expand processes one state: safety checks, terminal classification, and
// successor generation with visited-set deduplication over canonical
// (symmetry-quotiented) keys. Under POR the state's maximal chain of ample
// singletons is walked in place first (statement merging): intermediate
// states of the chain are safety-checked but never stored or counted, so
// only branching states — states with no safe transition — enter the
// visited set and the frontier. The chain is finite (the transition graph
// is acyclic, por.go) and a deterministic function of the state, so the
// stored set stays schedule-independent. Every chain state hangs off the
// node of w, the state being expanded: its earlier steps are a prefix of one
// via list the chain shares. Each world is recycled as soon as the
// exploration moves past it — a chain state when the chain takes its next
// step, the expanded state and the chain's end once their successors are
// filed — because successors point at nodes, not worlds. sc is the worker's
// scratch.
func (e *explorer) expand(w *world, local *[]*world, sc *scratch) {
	if e.states.Add(1) > e.maxStates {
		e.finish(fmt.Errorf("litmus %s: state budget %d exceeded", e.c.t.Name, e.maxStates))
		return
	}
	if e.c.windowViolated(w) {
		e.noteViolation(CxWindowViolation, w, sc)
	}
	n := sc.node(w)
	if e.c.por {
		var via []Step
		for chained := false; ; chained = true {
			s := e.c.ample(w, sc)
			if s == nil {
				break
			}
			if chained {
				via = append(via, w.edge.step)
			}
			w.recycle()
			s.edge.parent, s.edge.via = n, via
			if e.c.windowViolated(s) {
				e.noteViolation(CxWindowViolation, s, sc)
			}
			w = s
		}
		if w.edge.parent == n {
			n = sc.node(w) // the chain's end is the successors' parent
		}
	}
	succ := e.c.successors(w, sc)
	if len(succ) == 0 {
		if e.c.terminal(w) {
			e.noteTerminal(w, sc)
		} else {
			e.noteViolation(CxDeadlock, w, sc)
		}
		w.recycle()
		return
	}
	for i, s := range succ {
		succ[i] = nil
		key := e.c.key(s, sc)
		added, collision := e.visited.Add(core.Hash64(key), key)
		if collision {
			e.collisions.Add(1)
		}
		if !added {
			s.recycle()
			continue
		}
		if !e.budget.charge(e.stateCost(s, len(key))) {
			e.finish(fmt.Errorf("litmus %s: memory budget exceeded", e.c.t.Name))
			return
		}
		s.edge.parent = n
		e.notePeak(e.pending.Add(1))
		*local = append(*local, s)
	}
	w.recycle()
}

// notePeak lifts the pending high-water mark (Result.PeakFrontier). The
// value depends on scheduling — it is a capacity diagnostic, not a verdict —
// so report diffing and equivalence tests ignore it.
func (e *explorer) notePeak(v int64) {
	for {
		cur := e.peak.Load()
		if v <= cur || e.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// noteTerminal records a terminal outcome and its verdict flags. Under
// symmetry the outcome is expanded back over the automorphism orbit, so the
// reported outcome set matches unreduced exploration exactly (the predicates
// are orbit-invariant, so the flags need no re-check).
func (e *explorer) noteTerminal(w *world, sc *scratch) {
	out := e.c.outcomeOf(w)
	forbidden := e.c.t.Forbidden(out)
	reached := e.c.t.MustReach != nil && e.c.t.MustReach(out)
	e.mu.Lock()
	e.outcomes[out] = struct{}{}
	for i := range e.c.group {
		e.outcomes[permuteOutcome(out, &e.c.group[i])] = struct{}{}
	}
	if forbidden {
		e.forbidden = true
	}
	if reached {
		e.reached = true
	}
	e.mu.Unlock()
	if forbidden {
		e.noteViolation(CxForbidden, w, sc)
	}
}

// noteViolation offers w as the counterexample candidate; the canonically
// smallest (kind, canonical state key) wins so selection is schedule- and
// representative-independent.
func (e *explorer) noteViolation(kind CounterexampleKind, w *world, sc *scratch) {
	key := e.c.key(w, sc)
	e.mu.Lock()
	switch kind {
	case CxWindowViolation:
		e.window = true
	case CxDeadlock:
		e.deadlock = true
	}
	if !e.haveBad || kind < e.badKind ||
		(kind == e.badKind && string(key) < e.badKey) {
		e.haveBad = true
		e.bad = w.edge
		e.badKind = kind
		e.badKey = string(key)
		if kind == CxForbidden {
			e.badOutcome = e.c.outcomeOf(w)
		}
	}
	e.mu.Unlock()
}

// terminal: all programs retired, no in-flight or buffered work.
func (c *checker) terminal(w *world) bool {
	for p := range w.procs {
		if w.procs[p].pc < len(c.t.Progs[p]) || w.procs[p].flushWait >= 0 {
			return false
		}
	}
	if len(w.net) > 0 {
		return false
	}
	for d := range w.dirs {
		ds := &w.dirs[d]
		if ds.cord.Buffered() > 0 || len(ds.mp.Pending) > 0 || len(ds.mp.Flushes) > 0 {
			return false
		}
	}
	return true
}

// outcomeOf extracts the terminal outcome: every register file plus the
// final memory cells read from each address's home directory.
func (c *checker) outcomeOf(w *world) Outcome {
	var out Outcome
	for p := range w.procs {
		out.Regs[p] = w.procs[p].regs
	}
	for a := 0; a < MaxAddrs; a++ {
		out.Mem[a] = w.dirs[c.t.Home[min(a, len(c.t.Home)-1)]].mem[a]
	}
	return out
}

// windowViolated checks the invariant that makes CORD's truncated wire
// epochs unambiguous: a processor's in-flight epochs must span less than
// the wire window. The processor-side stall is supposed to guarantee it.
func (c *checker) windowViolated(w *world) bool {
	win := c.cfg.epochWindow()
	for p := range w.procs {
		cp := &w.procs[p].cord
		if len(cp.Unacked) > 0 && cp.Ep-cp.Unacked[0].Ep > win {
			return true
		}
	}
	return false
}

// successors generates every enabled transition's resulting state, each
// with the step that reaches it (expand links it to w's node). When
// ample has just probed w and found no safe transition, its processor
// successors are reused. The returned list aliases sc (nil sc: a fresh
// list) and is valid until the next call.
func (c *checker) successors(w *world, sc *scratch) []*world {
	var out []*world
	probed := sc != nil && sc.probed == w
	if sc != nil {
		out = sc.succ[:0]
		sc.probed = nil
	}
	// Processor steps.
	for p := range w.procs {
		var s *world
		if probed {
			s, sc.probes[p] = sc.probes[p], nil
		} else {
			s = c.stepProc(w, p)
		}
		if s != nil {
			s.edge.step = Step{Proc: p}
			out = append(out, s)
		}
	}
	// Message deliveries (unordered network: any in-flight message).
	for i := range w.net {
		s := w.clone()
		m := s.net[i]
		s.net = append(s.net[:i], s.net[i+1:]...)
		c.deliver(s, m)
		s.edge.step = Step{Deliver: true, Msg: m}
		out = append(out, s)
	}
	if sc != nil {
		sc.succ = out
	}
	return out
}
