package cord

import (
	"math"
	"strings"
	"testing"
)

func fastSystem() System {
	s := CXLSystem()
	s.Hosts = 4
	s.CoresPerHost = 4
	s.JitterCycles = 0
	return s
}

func TestSimulateQuickstart(t *testing.T) {
	w := Microbench(64, 1024, 1, 10)
	r, err := Simulate(w, CORD, fastSystem())
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecNanos() <= 0 || r.InterHostBytes() == 0 {
		t.Fatal("empty result")
	}
	if r.PeakProcTableBytes() == 0 {
		t.Fatal("CORD must report table occupancy")
	}
}

func TestCompareOrdersProtocols(t *testing.T) {
	w := Microbench(64, 4096, 1, 20)
	rs, err := Compare(w, fastSystem())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("Compare returned %d results, want 4", len(rs))
	}
	if rs[SO].ExecNanos() <= rs[CORD].ExecNanos() {
		t.Fatalf("SO (%v) should be slower than CORD (%v)", rs[SO].ExecNanos(), rs[CORD].ExecNanos())
	}
	if rs[SO].AckBytes() <= rs[CORD].AckBytes() {
		t.Fatal("SO must spend more ack bytes than CORD")
	}
	// MP's only "acks" are the per-round flush responses; far fewer than
	// SO's per-store acknowledgments.
	if rs[MP].AckBytes()*4 >= rs[SO].AckBytes() {
		t.Fatal("MP flush responses should be a small fraction of SO's acks")
	}
}

func TestCompareSkipsMPForIncompatible(t *testing.T) {
	w, err := App("TQH")
	if err != nil {
		t.Fatal(err)
	}
	w.Hosts = 4
	w.Rounds = 2
	rs, err := Compare(w, fastSystem())
	if err != nil {
		t.Fatal(err)
	}
	if _, has := rs[MP]; has {
		t.Fatal("TQH must be skipped under MP (§3.2)")
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
}

func TestSimulateDeterministic(t *testing.T) {
	w := Microbench(64, 2048, 3, 10)
	s := CXLSystem()
	a, err := Simulate(w, CORD, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(w, CORD, s)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecNanos() != b.ExecNanos() || a.InterHostBytes() != b.InterHostBytes() {
		t.Fatal("same seed must reproduce identical results")
	}
}

func TestSimulateRejectsUnknownProtocol(t *testing.T) {
	if _, err := Simulate(Microbench(64, 64, 1, 1), Protocol("nope"), fastSystem()); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestSystemValidation(t *testing.T) {
	s := fastSystem()
	s.CoresPerHost = -1
	s.Hosts = 0
	if _, err := s.netConfig(); err != nil {
		t.Fatalf("zero fields should default, got %v", err)
	}
}

func TestAppsRoundTrip(t *testing.T) {
	if len(Apps()) != 10 {
		t.Fatal("expected 10 applications")
	}
	if _, err := App("PR"); err != nil {
		t.Fatal(err)
	}
	if _, err := App("bogus"); err == nil {
		t.Fatal("bogus app accepted")
	}
}

func TestVerifyPublicAPI(t *testing.T) {
	suite := LitmusSuite()
	if len(suite) < 8 {
		t.Fatal("litmus suite too small")
	}
	var isa2 LitmusTest
	for _, s := range suite {
		if s.Name == "ISA2" {
			isa2 = s
		}
	}
	r, err := Verify(isa2, CORD)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatal("CORD must pass ISA2")
	}
	r, err = Verify(isa2, MP)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ForbiddenReachable {
		t.Fatal("MP must violate ISA2 (Fig. 3)")
	}
	r, err = VerifyCORDStress(isa2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatal("CORD must pass ISA2 even under-provisioned")
	}
	if _, err := Verify(isa2, WB); err == nil {
		t.Fatal("WB has no litmus model; expected error")
	}
}

func TestVerifyCustomTest(t *testing.T) {
	ct := LitmusTest{
		Name: "handoff",
		Progs: [][]LitmusOp{
			{LitmusSt(LitmusX, 7), LitmusStRel(LitmusY, 1)},
			{LitmusLdAcq(LitmusY, 0), LitmusLd(LitmusX, 1)},
		},
		Home: []int{0, 1},
		Forbidden: func(o LitmusOutcome) bool {
			return o.Regs[1][0] == 1 && o.Regs[1][1] != 7
		},
	}
	r, err := Verify(ct, CORD)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatal("custom handoff test failed under CORD")
	}
}

func TestLitmusVariantsExpand(t *testing.T) {
	vs := LitmusVariants(LitmusSuite()[0])
	if len(vs) != 9 {
		t.Fatalf("variants = %d, want 9", len(vs))
	}
}

func TestTraceRoundTripEquivalence(t *testing.T) {
	// Recording a workload and replaying the trace must give bit-identical
	// results to simulating the workload directly.
	w := Microbench(64, 2048, 2, 8)
	sys := fastSystem()
	direct, err := Simulate(w, CORD, sys)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTrace(w, sys)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := SimulateTrace(tr, CORD, sys)
	if err != nil {
		t.Fatal(err)
	}
	if direct.ExecNanos() != replay.ExecNanos() ||
		direct.InterHostBytes() != replay.InterHostBytes() {
		t.Fatalf("trace replay differs: %v/%v vs %v/%v",
			direct.ExecNanos(), direct.InterHostBytes(),
			replay.ExecNanos(), replay.InterHostBytes())
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	w := Microbench(8, 256, 1, 3)
	sys := fastSystem()
	tr, err := RecordTrace(w, sys)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := SimulateTrace(tr, SO, sys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTrace(back, SO, sys)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecNanos() != b.ExecNanos() {
		t.Fatal("serialized trace replays differently")
	}
}

func TestSimulateTraceRejectsOversizedCores(t *testing.T) {
	w := Microbench(64, 256, 3, 2) // needs 4 hosts
	big := CXLSystem()
	tr, err := RecordTrace(w, big)
	if err != nil {
		t.Fatal(err)
	}
	small := fastSystem()
	small.Hosts = 2
	if _, err := SimulateTrace(tr, CORD, small); err == nil {
		// cores fit (host 0 only) — instead corrupt a core.
		tr.Cores[0].Host = 99
		if _, err := SimulateTrace(tr, CORD, small); err == nil {
			t.Fatal("out-of-range trace core accepted")
		}
	}
}

func TestCharacterizeTracePublicAPI(t *testing.T) {
	w, err := App("BigFFT")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTrace(w, CXLSystem())
	if err != nil {
		t.Fatal(err)
	}
	s := CharacterizeTrace(tr)
	if s.Cores != 8 || s.Releases == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRingTopologyPreservesCORDWin(t *testing.T) {
	// The directory-ordering benefit survives a multi-hop inter-host
	// topology (and grows, since acknowledgments cross more links).
	w := Microbench(64, 4096, 3, 20)
	star := CXLSystem()
	ring := CXLSystem()
	ring.RingTopology = true
	for _, sys := range []System{star, ring} {
		co, err := Simulate(w, CORD, sys)
		if err != nil {
			t.Fatal(err)
		}
		so, err := Simulate(w, SO, sys)
		if err != nil {
			t.Fatal(err)
		}
		if so.ExecNanos() <= co.ExecNanos() {
			t.Fatalf("ring=%v: SO %.0f should exceed CORD %.0f",
				sys.RingTopology, so.ExecNanos(), co.ExecNanos())
		}
	}
	coRing, _ := Simulate(w, CORD, ring)
	coStar, _ := Simulate(w, CORD, star)
	if coRing.ExecNanos() <= coStar.ExecNanos() {
		t.Fatal("ring topology should cost more latency than the switch")
	}
}

func TestSimulateProgramCustomScenario(t *testing.T) {
	// A hand-built task handoff using the program API: producer streams
	// data then bumps a task counter atomically; the worker waits for it.
	data := ComposeAddr(1, 0, 0)
	task := ComposeAddr(1, 1, 0)
	var prod Program
	prod = append(prod, ComputeOp(100))
	for i := 0; i < 8; i++ {
		prod = append(prod, StoreRelaxed(data+Addr(i*64), 64))
	}
	prod = append(prod, FetchAddOp(task, 1, OrdRelease))
	prod = append(prod, FullBarrier())
	worker := Program{AcquireLoad(task, 1), ComputeOp(500)}

	r, err := SimulateProgram(map[CoreRef]Program{
		{Host: 0, Core: 0}: prod,
		{Host: 1, Core: 2}: worker,
	}, CORD, fastSystem())
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecNanos() <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestSimulateProgramValidation(t *testing.T) {
	if _, err := SimulateProgram(nil, CORD, fastSystem()); err == nil {
		t.Fatal("empty program set accepted")
	}
	bad := map[CoreRef]Program{{Host: 99, Core: 0}: {ComputeOp(1)}}
	if _, err := SimulateProgram(bad, CORD, fastSystem()); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	// A store size an int32 would wrap (1<<32 + 64 to 64), or one that
	// overflows the wire size, is an error under every protocol, not a
	// 64-byte store or a panic.
	a := ComposeAddr(1, 0, 0)
	for _, size := range []int{1<<32 + 64, math.MaxInt - 8} {
		for _, p := range Protocols() {
			progs := map[CoreRef]Program{{Host: 0, Core: 0}: {StoreRelaxed(a, size), StoreRelease(a+64, 8, 1)}}
			if _, err := SimulateProgram(progs, p, fastSystem()); err == nil || !strings.Contains(err.Error(), "stores more than") {
				t.Errorf("%s, size %d: err %v, want the store-size bound", p, size, err)
			}
		}
	}
}

func TestSimulateProgramDeterministicAcrossMapOrder(t *testing.T) {
	progs := map[CoreRef]Program{
		{Host: 0, Core: 0}: {StoreRelease(ComposeAddr(1, 0, 0), 8, 1), FullBarrier()},
		{Host: 1, Core: 0}: {AcquireLoad(ComposeAddr(1, 0, 0), 1)},
		{Host: 2, Core: 0}: {ComputeOp(10)},
	}
	a, err := SimulateProgram(progs, SO, fastSystem())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateProgram(progs, SO, fastSystem())
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecNanos() != b.ExecNanos() {
		t.Fatal("map iteration order leaked into results")
	}
}

func TestReleaseLatencyDistribution(t *testing.T) {
	w := Microbench(64, 4096, 1, 30)
	co, err := Simulate(w, CORD, CXLSystem())
	if err != nil {
		t.Fatal(err)
	}
	so, err := Simulate(w, SO, CXLSystem())
	if err != nil {
		t.Fatal(err)
	}
	cm, cp50, cp99 := co.ReleaseLatencyNanos()
	sm, sp50, sp99 := so.ReleaseLatencyNanos()
	if cm <= 0 || sm <= 0 {
		t.Fatal("release latency not recorded")
	}
	if cp50 > cp99 || sp50 > sp99 {
		t.Fatal("quantiles not monotone")
	}
	// One CXL round trip is ~300ns; both should be in hundreds of ns.
	if cm < 100 || cm > 3000 {
		t.Fatalf("CORD mean release latency %.0f ns implausible", cm)
	}
	// MP has no acknowledged releases.
	mp, err := Simulate(w, MP, CXLSystem())
	if err != nil {
		t.Fatal(err)
	}
	if m, _, _ := mp.ReleaseLatencyNanos(); m != 0 {
		t.Fatal("MP should have no release-ack latency samples")
	}
}

func TestGraphWorkloadsPublicAPI(t *testing.T) {
	cfg := GraphConfig{
		Vertices: 300, AvgDegree: 5, PowerLaw: true,
		Partitions: 4, Iterations: 3, ComputePerEdge: 2, Seed: 8,
	}
	sys := fastSystem()
	tr, err := cfg.PageRankTrace(sys)
	if err != nil {
		t.Fatal(err)
	}
	co, err := SimulateTrace(tr, CORD, sys)
	if err != nil {
		t.Fatal(err)
	}
	so, err := SimulateTrace(tr, SO, sys)
	if err != nil {
		t.Fatal(err)
	}
	if so.ExecNanos() <= co.ExecNanos() {
		t.Fatalf("SO %.0f should be slower than CORD %.0f on derived PageRank",
			so.ExecNanos(), co.ExecNanos())
	}
	st := CharacterizeTrace(tr)
	if st.RelaxedBytes != 4 {
		t.Fatalf("derived PageRank pushes words; got %.1fB", st.RelaxedBytes)
	}
	if _, err := cfg.SSSPTrace(sys); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Vertices = 1
	if _, err := bad.PageRankTrace(sys); err == nil {
		t.Fatal("bad graph config accepted")
	}
}

func TestUPIFasterEndToEnd(t *testing.T) {
	w := Microbench(64, 2048, 1, 20)
	cxl, err := Simulate(w, CORD, CXLSystem())
	if err != nil {
		t.Fatal(err)
	}
	upi, err := Simulate(w, CORD, UPISystem())
	if err != nil {
		t.Fatal(err)
	}
	if upi.ExecNanos() >= cxl.ExecNanos() {
		t.Fatalf("UPI (%.0f) should beat CXL (%.0f)", upi.ExecNanos(), cxl.ExecNanos())
	}
}

func TestCompareUnderTSO(t *testing.T) {
	w := Microbench(64, 1024, 1, 10)
	sys := fastSystem()
	sys.Model = TotalStoreOrder
	rs, err := Compare(w, sys)
	if err != nil {
		t.Fatal(err)
	}
	if rs[SO].ExecNanos() <= rs[CORD].ExecNanos() {
		t.Fatal("SO must be slower than CORD under TSO")
	}
}
