package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cord/internal/exp"
	"cord/internal/proto"
	"cord/internal/stats"
)

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "job", ID: 1, Start: 0, End: 100},
		// Overlapping children cover [10, 50] once, not twice.
		{Name: "exec", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "exec", ID: 3, Parent: 1, Start: 20, End: 50},
		// A child running past its parent's end counts only inside it.
		{Name: "exec", ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{Name: "build", ID: 5, Parent: 2, Start: 12, End: 18},
		// An open span is ignored.
		{Name: "build", ID: 6, Parent: 3, Start: 40, End: -1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job":   100 - 40 - 10,
		"exec":  (20 - 6) + 30 + 30,
		"build": 6,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestCoveredMergesAdjacentAndNested(t *testing.T) {
	cases := []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},
		{[][2]int64{{2, 8}, {3, 4}}, 0, 10, 6},
		{[][2]int64{{-5, 3}, {7, 20}}, 0, 10, 6},
		{[][2]int64{{20, 30}}, 0, 10, 0},
	}
	for _, c := range cases {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("job", 0, "x")
	tr.end(id)
	tr.add("litmus.instance", id, "x", time.Millisecond)
	if id != 0 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded: id %d, spans %v", id, tr.snapshot())
	}
}

// appsJobDigest runs one apps job the way a pass does and digests it.
func appsJobDigest(t *testing.T, id string) string {
	t.Helper()
	r := newApps(defaultSeed)
	for _, j := range r.jobs {
		if j.id != id {
			continue
		}
		cores, progs, sys, _, err := r.setup(j, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		run, _, err := simulate(sys, j.scheme, nil, nil, 0, id, func(b proto.Builder) (*stats.Run, error) {
			return proto.Exec(sys, b, cores, progs)
		})
		if err != nil {
			t.Fatal(err)
		}
		return runDigest(run)
	}
	t.Fatalf("no apps job %s", id)
	return ""
}

func TestDigestsStableAcrossRuns(t *testing.T) {
	golden, err := loadGolden("apps")
	if err != nil {
		t.Fatal(err)
	}
	const id = "PAD/CORD"
	a, b := appsJobDigest(t, id), appsJobDigest(t, id)
	if a != b || a != golden[id] {
		t.Errorf("%s digests %s, %s; golden %s", id, a, b, golden[id])
	}

	// The kv job's digest must not depend on the partitioned engine's
	// worker count either.
	kvGolden, err := loadGolden("kv")
	if err != nil {
		t.Fatal(err)
	}
	kv := newKV(defaultSeed)
	var digests []string
	for _, workers := range []int{1, 2} {
		run, st, _, _, err := kv.job(exp.SchemeCORD, workers, nil, nil, 0, "kv/CORD")
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, kvDigest(run, st))
	}
	if digests[0] != digests[1] || digests[0] != kvGolden["kv/CORD"] {
		t.Errorf("kv/CORD digests %v; golden %s", digests, kvGolden["kv/CORD"])
	}
}

// TestCorruptedGoldenFails runs the verify workload against its committed
// golden digests, then against a copy with one entry corrupted: the first
// run must fail nothing, the second must report a failed job.
func TestCorruptedGoldenFails(t *testing.T) {
	golden, err := loadGolden("verify")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: defaultSeed, seconds: time.Second, golden: golden}
	res, _, err := measure("verify", newVerify(defaultSeed), o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("intact golden: correct %t, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
	}

	corrupt := map[string]string{}
	for k, v := range golden {
		corrupt[k] = v
	}
	const id = "default/MP/place[0 1]"
	if _, ok := corrupt[id]; !ok {
		t.Fatalf("golden has no %s", id)
	}
	corrupt[id] += "0"
	o.golden = corrupt
	res, _, err = measure("verify", newVerify(defaultSeed), o)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(res.Failed) / float64(res.Attempted); res.Correct || ratio <= 0 {
		t.Fatalf("corrupted golden: correct %t, failed ratio %g", res.Correct, ratio)
	}
	if !strings.Contains(strings.Join(res.Problems, "\n"), id) {
		t.Errorf("problems do not name %s: %v", id, res.Problems)
	}
}

func TestCompareFlagsOnlyWorseBeyondBound(t *testing.T) {
	cases := []struct {
		old, new float64
		better   string
		bound    float64
		worse    bool
	}{
		{10, 10.5, "lower", 0.1, false},  // 5% slower, inside the bound
		{10, 11.5, "lower", 0.1, true},   // 15% slower
		{10, 5, "lower", 0.1, false},     // faster
		{100, 85, "higher", 0.1, true},   // 15% less throughput
		{100, 150, "higher", 0.1, false}, // more throughput
		{10, 20, "lower", -1, false},     // unbounded
	}
	for _, c := range cases {
		if got := compare(c.old, c.new, c.better, c.bound); got.worse != c.worse {
			t.Errorf("compare(%g, %g, %s, %g).worse = %t, want %t", c.old, c.new, c.better, c.bound, got.worse, c.worse)
		}
	}
	if c := compare(10, 11, "lower", 0.1); math.Abs(c.rel-0.1) > 1e-12 {
		t.Errorf("relative change %g, want 0.1", c.rel)
	}
}

func TestDiffFlagsOutOfBoundWorkload(t *testing.T) {
	var spec specFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "run_cpu_s", "better": "lower", "bound": 0.1},
		{"name": "work_per_cpu_s", "better": "higher", "bound": 0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	file := func(appsRun, kvRun float64) resultFile {
		mk := func(name string, run float64) entry {
			return entry{result: result{Workload: name, Metrics: map[string]metric{
				"run_cpu_s": {run, "s"}, "work_per_cpu_s": {1 / run, "1/s"}}}}
		}
		return resultFile{Runs: map[string]entry{"apps": mk("apps", appsRun), "kv": mk("kv", kvRun)}}
	}
	var out strings.Builder
	if diffResults(&out, spec, file(10, 2), file(10.2, 1.9)) {
		t.Errorf("small changes flagged:\n%s", out.String())
	}
	out.Reset()
	if !diffResults(&out, spec, file(10, 2), file(10, 2.5)) {
		t.Errorf("25%% slower kv not flagged:\n%s", out.String())
	}
	var kvRow string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "kv ") {
			kvRow = line
		}
		if strings.HasPrefix(line, "apps ") && strings.Contains(line, "!") {
			t.Errorf("unchanged apps row flagged: %q", line)
		}
	}
	if !strings.Contains(kvRow, "+25.0% !") {
		t.Errorf("kv row %q lacks the flagged +25.0%% change", kvRow)
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists in step
// with the names, units and directions the benchmark reports.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
