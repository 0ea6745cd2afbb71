package litmus

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cord/internal/proto/core"
)

func mustCheck(t *testing.T, test Test, cfg Config) Result {
	t.Helper()
	r, err := Check(test, cfg)
	if err != nil {
		t.Fatalf("%s: %v", test.Name, err)
	}
	return r
}

func base(t *testing.T, name string) Test {
	t.Helper()
	for _, b := range BaseTests() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no base test %q", name)
	return Test{}
}

func TestBaseTestsValidate(t *testing.T) {
	for _, b := range BaseTests() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	if len(BaseTests()) < 8 {
		t.Fatal("expected at least 8 base shapes")
	}
}

func TestCORDForbidsMP(t *testing.T) {
	r := mustCheck(t, base(t, "MP"), DefaultConfig())
	if !r.Pass() {
		t.Fatalf("MP failed under CORD: forbidden=%t deadlock=%t reached=%t",
			r.Forbidden, r.Deadlock, r.Reached)
	}
	if len(r.Outcomes) < 2 {
		t.Fatalf("MP explored only %d outcomes; expected staleness variety", len(r.Outcomes))
	}
}

func TestCORDForbidsISA2(t *testing.T) {
	r := mustCheck(t, base(t, "ISA2"), DefaultConfig())
	if r.Forbidden {
		t.Fatal("CORD reached ISA2's forbidden outcome")
	}
	if r.Deadlock {
		t.Fatal("CORD deadlocked on ISA2")
	}
}

func TestMPViolatesISA2(t *testing.T) {
	// §3.2 / Fig. 3: message passing's point-to-point ordering allows the
	// ISA2 forbidden outcome when X,Z live at one PU and Y at another.
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{MPP}
	r := mustCheck(t, base(t, "ISA2"), cfg)
	if !r.Forbidden {
		t.Fatal("MP did NOT reach ISA2's forbidden outcome — the §3.2 demonstration failed")
	}
	if r.Deadlock {
		t.Fatal("MP deadlocked")
	}
}

func TestMPHonorsPointToPointOrder(t *testing.T) {
	// With X and Y homed at the same directory, MP's per-destination FIFO
	// does forbid the MP-shape violation.
	mp := base(t, "MP")
	mp.Home = []int{1, 1}
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{MPP}
	r := mustCheck(t, mp, cfg)
	if r.Forbidden {
		t.Fatal("MP violated same-destination FIFO ordering")
	}
}

func TestMPViolatesCrossDirMP(t *testing.T) {
	// With X and Y at different PUs, MP reorders them (no acknowledgment,
	// no cross-destination ordering).
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{MPP}
	r := mustCheck(t, base(t, "MP"), cfg)
	if !r.Forbidden {
		t.Fatal("MP should reorder stores to different destinations")
	}
}

func TestSOPassesEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{SOP}
	for _, b := range BaseTests() {
		r := mustCheck(t, b, cfg)
		if !r.Pass() {
			t.Errorf("%s failed under SO: forbidden=%t deadlock=%t reached=%t",
				b.Name, r.Forbidden, r.Deadlock, r.Reached)
		}
	}
}

func TestCORDPassesAllBaseShapes(t *testing.T) {
	for _, b := range BaseTests() {
		r := mustCheck(t, b, DefaultConfig())
		if !r.Pass() {
			t.Errorf("%s failed under CORD: forbidden=%t deadlock=%t window=%t reached=%t",
				b.Name, r.Forbidden, r.Deadlock, r.WindowViolated, r.Reached)
		}
	}
}

func TestCORDTinyConfigStillCorrect(t *testing.T) {
	// 2-bit epochs, saturating-at-1 counters, single-entry tables: every
	// overflow and stall path fires, and the protocol must stay correct and
	// deadlock-free (§4.5's customized tests).
	for _, b := range BaseTests() {
		r := mustCheck(t, b, TinyConfig())
		if !r.Pass() {
			t.Errorf("%s failed under tiny CORD: forbidden=%t deadlock=%t window=%t reached=%t",
				b.Name, r.Forbidden, r.Deadlock, r.WindowViolated, r.Reached)
		}
	}
}

func TestMixedCordSOSystems(t *testing.T) {
	// Some cores use CORD while others stick to source ordering (§4.5).
	for _, cv := range CordConfigs() {
		if !strings.Contains(cv.Name, "mixed") {
			continue
		}
		for _, b := range BaseTests() {
			r := mustCheck(t, b, cv.Cfg)
			if !r.Pass() {
				t.Errorf("%s under %s: forbidden=%t deadlock=%t reached=%t",
					b.Name, cv.Name, r.Forbidden, r.Deadlock, r.Reached)
			}
		}
	}
}

func TestVariantsEnumeratePlacements(t *testing.T) {
	vs := Variants(base(t, "MP")) // 2 addresses -> 9 placements
	if len(vs) != 9 {
		t.Fatalf("variants = %d, want 9", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		if seen[v.Name] {
			t.Fatalf("duplicate variant %s", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestFullSuiteSize(t *testing.T) {
	n := len(FullCordSuite())
	// MP(9) + RelRel(9) + ISA2(27) + WRC(9) + S(9) + 2+2W(9) + SB(9)
	// + IRIW(9) + MP3(81) + RelChain(27) = 198 placements per config.
	if n < 150 {
		t.Fatalf("suite has %d variants, expected >= 150", n)
	}
}

func TestOverflowFlushIsSound(t *testing.T) {
	// With CntMax=1, the second Relaxed store to a directory forces a flush
	// Release; ordering must survive, and no deadlock.
	test := Test{
		Name: "flush",
		Progs: [][]Op{
			{St(X, 1), St(Y, 1), St(X, 2), StRel(Z, 1)},
			{LdAcq(Z, 0), Ld(X, 1), Ld(Y, 2)},
		},
		Home: []int{0, 1, 2},
		Forbidden: func(o Outcome) bool {
			return o.Regs[1][0] == 1 && (o.Regs[1][1] != 2 || o.Regs[1][2] != 1)
		},
	}
	r := mustCheck(t, test, TinyConfig())
	if !r.Pass() {
		t.Fatalf("flush test: forbidden=%t deadlock=%t window=%t", r.Forbidden, r.Deadlock, r.WindowViolated)
	}
}

func TestWindowInvariantHolds(t *testing.T) {
	// A long release chain with a 2-bit epoch window: the stall logic must
	// keep in-flight epochs within the window at every reachable state.
	test := Test{
		Name: "window",
		Progs: [][]Op{
			{StRel(X, 1), StRel(Y, 1), StRel(Z, 1), StRel(X, 2), StRel(Y, 2), StRel(Z, 2)},
		},
		Home:      []int{0, 1, 2},
		Forbidden: func(o Outcome) bool { return false },
	}
	cfg := TinyConfig()
	cfg.ProcUnackedCap = 4 // window (3) binds before the table cap
	r := mustCheck(t, test, cfg)
	if r.WindowViolated {
		t.Fatal("epoch window invariant violated")
	}
	if r.Deadlock {
		t.Fatal("deadlock in window test")
	}
}

func TestValidateRejectsBadTests(t *testing.T) {
	bad := []Test{
		{Name: "no-procs", Home: []int{0}, Forbidden: func(Outcome) bool { return false }},
		{Name: "bad-addr", Progs: [][]Op{{St(Addr(9), 1)}}, Home: []int{0},
			Forbidden: func(Outcome) bool { return false }},
		{Name: "no-home", Progs: [][]Op{{St(Z, 1)}}, Home: []int{0},
			Forbidden: func(Outcome) bool { return false }},
		{Name: "no-pred", Progs: [][]Op{{St(X, 1)}}, Home: []int{0}},
		{Name: "bad-dir", Progs: [][]Op{{St(X, 1)}}, Home: []int{7},
			Forbidden: func(Outcome) bool { return false }},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("%s: accepted invalid test", b.Name)
		}
	}
}

func TestRunSuiteAggregates(t *testing.T) {
	sr, err := RunSuite(BaseTests(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Total != len(BaseTests()) || sr.Passed != sr.Total {
		t.Fatalf("suite: %d/%d passed, failed: %v", sr.Passed, sr.Total, sr.Failed)
	}
	if sr.States == 0 {
		t.Fatal("no states explored")
	}
}

// TestOutcomeStringMatchesFmt: Outcome.String keys Result.Outcomes and the
// reports, so it must keep printing exactly what fmt's "%v|%v" printed.
func TestOutcomeStringMatchesFmt(t *testing.T) {
	var o Outcome
	if got, want := o.String(), fmt.Sprintf("%v|%v", o.Regs, o.Mem); got != want {
		t.Fatalf("zero outcome: %q, want %q", got, want)
	}
	for p := range o.Regs {
		for r := range o.Regs[p] {
			o.Regs[p][r] = (p*MaxRegs + r - 5) * 1_000_003
		}
	}
	for a := range o.Mem {
		o.Mem[a] = -a * 77
	}
	o.Mem[0] = math.MinInt
	if got, want := o.String(), fmt.Sprintf("%v|%v", o.Regs, o.Mem); got != want {
		t.Fatalf("outcome: %q, want %q", got, want)
	}
}

func TestOpStrings(t *testing.T) {
	if got := St(X, 1).String(); got != "St.rlx X=1" {
		t.Fatalf("St = %q", got)
	}
	if got := LdAcq(Y, 2).String(); got != "r2=Ld.acq Y" {
		t.Fatalf("LdAcq = %q", got)
	}
}

func TestFullSuiteAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement x config product")
	}
	suite := FullCordSuite()
	total := 0
	for _, cv := range CordConfigs() {
		sr, err := RunSuite(suite, cv.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", cv.Name, err)
		}
		if sr.Passed != sr.Total {
			t.Errorf("%s: %d/%d passed; failures: %v", cv.Name, sr.Passed, sr.Total, sr.Failed)
		}
		total += sr.Total
		t.Logf("%s: %d tests, %d states", cv.Name, sr.Total, sr.States)
	}
	if total < 300 {
		t.Errorf("only %d test instances ran; paper's suite is 122+180", total)
	}
}

func TestBarrierOrdersUnderAllProtocols(t *testing.T) {
	// MP+bar: a release barrier between two Relaxed stores restores
	// ordering even under message passing (the flushing read), and of
	// course under CORD and SO.
	mpBar := base(t, "MP+bar")
	for _, pk := range []ProtoKind{CORDP, SOP, MPP, WBP} {
		cfg := DefaultConfig()
		cfg.Protos = []ProtoKind{pk}
		r := mustCheck(t, mpBar, cfg)
		if r.Forbidden {
			t.Errorf("%v: barrier failed to order relaxed stores", pk)
		}
		if r.Deadlock {
			t.Errorf("%v: deadlock with barrier", pk)
		}
	}
}

func TestMPWithoutBarrierStillBroken(t *testing.T) {
	// The same shape WITHOUT the barrier is reordered by MP (different
	// destination PUs) — the barrier above is what fixes it.
	bare := Test{
		Name: "MP-nobar",
		Progs: [][]Op{
			{St(X, 1), St(Y, 1)},
			{LdAcq(Y, 0), Ld(X, 1)},
		},
		Home: []int{0, 1},
		Forbidden: func(o Outcome) bool {
			return o.Regs[1][0] == 1 && o.Regs[1][1] == 0
		},
	}
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{MPP}
	r := mustCheck(t, bare, cfg)
	if !r.Forbidden {
		t.Fatal("MP without a flush should reorder cross-destination stores")
	}
}

func TestHandOrchestratedMPFixesISA2(t *testing.T) {
	// §3.2's point about programmer complexity: inserting an explicit flush
	// in T0 between the data store and the flag store restores the ISA2
	// guarantee under message passing — at the cost of a stalling read.
	isa2Flush := Test{
		Name: "ISA2+flush",
		Progs: [][]Op{
			{St(X, 1), BarRel(), St(Y, 1)},
			{LdAcq(Y, 0), StRel(Z, 1)},
			{LdAcq(Z, 1), Ld(X, 2)},
		},
		Home: []int{2, 1, 2},
		Forbidden: func(o Outcome) bool {
			return o.Regs[1][0] == 1 && o.Regs[2][1] == 1 && o.Regs[2][2] == 0
		},
	}
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{MPP}
	r := mustCheck(t, isa2Flush, cfg)
	if r.Forbidden {
		t.Fatal("hand-orchestrated MP (with flush) should satisfy ISA2")
	}
	if r.Deadlock {
		t.Fatal("deadlock in flushed ISA2")
	}
}

func TestBarrierUnderTinyConfig(t *testing.T) {
	r := mustCheck(t, base(t, "MP+bar"), TinyConfig())
	if !r.Pass() {
		t.Fatalf("MP+bar under tiny CORD: forbidden=%t deadlock=%t", r.Forbidden, r.Deadlock)
	}
}

func TestAtomicReleasePublishes(t *testing.T) {
	// MP shape with an atomic Release in place of the release store: the
	// fetch-add must publish the prior Relaxed data under CORD and SO.
	shape := Test{
		Name: "MP+atomic",
		Progs: [][]Op{
			{St(X, 1), FAddRel(Y, 1, 3)},
			{LdAcq(Y, 0), Ld(X, 1)},
		},
		Home: []int{0, 1},
		Forbidden: func(o Outcome) bool {
			return o.Regs[1][0] == 1 && o.Regs[1][1] == 0
		},
	}
	for _, pk := range []ProtoKind{CORDP, SOP, WBP} {
		cfg := DefaultConfig()
		cfg.Protos = []ProtoKind{pk}
		r := mustCheck(t, shape, cfg)
		if r.Forbidden || r.Deadlock {
			t.Errorf("%v: forbidden=%t deadlock=%t", pk, r.Forbidden, r.Deadlock)
		}
	}
	// MP still reorders across destinations, atomic or not.
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{MPP}
	r := mustCheck(t, shape, cfg)
	if !r.Forbidden {
		t.Error("MP should still reorder the cross-destination atomic publish")
	}
}

func TestAtomicsNeverLoseUpdates(t *testing.T) {
	// Two processors fetch-add the same word; the final value must be the
	// sum and the two old values must be distinct (atomicity), under every
	// protocol and placement.
	shape := Test{
		Name: "atomic-accum",
		Progs: [][]Op{
			{FAdd(X, 1, 0)},
			{FAdd(X, 1, 0)},
		},
		Home: []int{1},
		Forbidden: func(o Outcome) bool {
			if o.Mem[X] != 2 {
				return true // lost update
			}
			return o.Regs[0][0] == o.Regs[1][0] // both read the same old value
		},
	}
	for _, pk := range []ProtoKind{CORDP, SOP, MPP, WBP} {
		cfg := DefaultConfig()
		cfg.Protos = []ProtoKind{pk}
		r := mustCheck(t, shape, cfg)
		if r.Forbidden {
			t.Errorf("%v: atomicity violated", pk)
		}
		if r.Deadlock {
			t.Errorf("%v: deadlock", pk)
		}
	}
}

func TestAtomicUnderTinyCORD(t *testing.T) {
	shape := Test{
		Name: "atomic-tiny",
		Progs: [][]Op{
			{St(X, 1), St(Y, 1), FAddRel(Z, 1, 0)},
			{LdAcq(Z, 1), Ld(X, 2), Ld(Y, 3)},
		},
		Home: []int{0, 1, 2},
		Forbidden: func(o Outcome) bool {
			return o.Regs[1][1] == 1 && (o.Regs[1][2] == 0 || o.Regs[1][3] == 0)
		},
	}
	r := mustCheck(t, shape, TinyConfig())
	if !r.Pass() {
		t.Fatalf("tiny CORD atomic: forbidden=%t deadlock=%t window=%t",
			r.Forbidden, r.Deadlock, r.WindowViolated)
	}
}

func TestWBPassesAllBaseShapes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{WBP}
	for _, b := range BaseTests() {
		r := mustCheck(t, b, cfg)
		if !r.Pass() {
			t.Errorf("WB %s: forbidden=%t deadlock=%t reached=%t",
				b.Name, r.Forbidden, r.Deadlock, r.Reached)
		}
	}
}

func TestWBSingleMSHRDoesNotDeadlock(t *testing.T) {
	// Four relaxed stores to four distinct lines through a single MSHR:
	// every miss must drain before the next allocates, and the release
	// flush must still publish all of them before the flag.
	shape := Test{
		Name: "wb-mshr-pressure",
		Progs: [][]Op{
			{St(X, 1), St(Y, 1), St(Z, 1), StRel(W, 1)},
			{LdAcq(W, 0), Ld(X, 1), Ld(Y, 2), Ld(Z, 3)},
		},
		Home: []int{0, 1, 2, 2},
		Forbidden: func(o Outcome) bool {
			return o.Regs[1][0] == 1 &&
				(o.Regs[1][1] == 0 || o.Regs[1][2] == 0 || o.Regs[1][3] == 0)
		},
	}
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{WBP}
	cfg.WBMSHRs = 1
	r := mustCheck(t, shape, cfg)
	if !r.Pass() {
		t.Fatalf("WB with 1 MSHR: forbidden=%t deadlock=%t", r.Forbidden, r.Deadlock)
	}
}

func TestWBWriteLocalityStaysCached(t *testing.T) {
	// Repeated stores to one line dirty the cache without traffic; the
	// observer must never see the second value without the first release
	// boundary having flushed both (they merge into one write-back).
	shape := Test{
		Name: "wb-reuse",
		Progs: [][]Op{
			{St(X, 1), St(X, 2), StRel(Y, 1)},
			{LdAcq(Y, 0), Ld(X, 1)},
		},
		Home: []int{0, 1},
		Forbidden: func(o Outcome) bool {
			return o.Regs[1][0] == 1 && o.Regs[1][1] != 2
		},
	}
	cfg := DefaultConfig()
	cfg.Protos = []ProtoKind{WBP}
	r := mustCheck(t, shape, cfg)
	if !r.Pass() {
		t.Fatalf("WB reuse: forbidden=%t deadlock=%t", r.Forbidden, r.Deadlock)
	}
}

func TestNoNotificationsVariantEquivalence(t *testing.T) {
	// The core.VariantNoNotifications switch and the scalar
	// Config.NoNotifications flag must explore identical outcome sets —
	// they resolve to the same core parameter.
	viaFlag := DefaultConfig()
	viaFlag.NoNotifications = true
	viaVariant := DefaultConfig()
	viaVariant.Variants = []core.Variant{core.VariantNoNotifications}
	for _, b := range BaseTests() {
		a := mustCheck(t, b, viaFlag)
		v := mustCheck(t, b, viaVariant)
		if !a.Pass() || !v.Pass() {
			t.Errorf("%s: no-notifications failed (flag pass=%t, variant pass=%t)",
				b.Name, a.Pass(), v.Pass())
		}
		if len(a.Outcomes) != len(v.Outcomes) || a.States != v.States {
			t.Errorf("%s: flag and variant diverge: %d/%d outcomes, %d/%d states",
				b.Name, len(a.Outcomes), len(v.Outcomes), a.States, v.States)
		}
	}
}
