package runtime_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	rt "cord/internal/obs/runtime"
	"cord/internal/sim"
)

// window builds a synthetic WindowRecord. starts[i] < 0 marks shard i
// inactive; Active is derived.
func window(anchor, deadline sim.Time, wall, flush int64,
	starts, busys []int64, evs []uint64) *sim.WindowRecord {
	r := &sim.WindowRecord{
		Anchor: anchor, Deadline: deadline,
		WallNs: wall, FlushNs: flush,
		ShardStartNs: starts, ShardBusyNs: busys, ShardEvents: evs,
	}
	for _, s := range starts {
		if s >= 0 {
			r.Active++
		}
	}
	return r
}

func TestCollectorTotalsAndTiling(t *testing.T) {
	col := rt.NewCollector(3)
	w0 := window(0, 99, 1000, 100,
		[]int64{0, 100, -1}, []int64{100, 800, 0}, []uint64{50, 30, 0})
	w0.Retained, w0.Injected, w0.MergedBytes = 10, 8, 800
	col.ObserveWindow(w0)
	w1 := window(100, 199, 2000, 0,
		[]int64{0, -1, 500}, []int64{500, 0, 1500}, []uint64{10, 0, 20})
	w1.Retained = 2
	col.ObserveWindow(w1)

	if got := col.Windows(); got != 2 {
		t.Fatalf("Windows() = %d, want 2", got)
	}
	if got := col.Events(); got != 110 {
		t.Fatalf("Events() = %d, want 110", got)
	}

	r := col.Snapshot()
	if r.Hosts != 3 {
		t.Fatalf("hosts=%d, want 3", r.Hosts)
	}
	tot := r.Totals
	if tot.WallNs != 3000 || tot.FlushNs != 100 {
		t.Errorf("wall=%d flush=%d, want 3000/100", tot.WallNs, tot.FlushNs)
	}
	if tot.BusyNs != 2900 || tot.IdleNs != 600 || tot.BarrierNs != 2500 {
		t.Errorf("busy=%d idle=%d barrier=%d, want 2900/600/2500", tot.BusyNs, tot.IdleNs, tot.BarrierNs)
	}
	if tot.ActiveSum != 4 {
		t.Errorf("activeSum=%d, want 4", tot.ActiveSum)
	}
	// Each window's flush census lands on that window; retained is a peak.
	if tot.Injected != 8 || tot.MergedBytes != 800 || tot.RetainedMax != 10 {
		t.Errorf("flush census = %d msgs / %d bytes / max %d, want 8/800/10",
			tot.Injected, tot.MergedBytes, tot.RetainedMax)
	}
	if r.RetainedPeak != 10 {
		t.Errorf("peak=%d, want 10", r.RetainedPeak)
	}
	if len(r.Series) != 2 || r.Series[0].Injected != 8 || r.Series[1].Injected != 0 ||
		r.Series[0].RetainedMax != 10 || r.Series[1].RetainedMax != 2 {
		t.Errorf("series census misplaced: %+v", r.Series)
	}

	want := []rt.ShardTotals{
		{Shard: 0, Windows: 2, Events: 60, BusyNs: 600, IdleNs: 0, BarrierNs: 2400, WallNs: 3000},
		{Shard: 1, Windows: 1, Events: 30, BusyNs: 800, IdleNs: 100, BarrierNs: 100, WallNs: 1000},
		{Shard: 2, Windows: 1, Events: 20, BusyNs: 1500, IdleNs: 500, BarrierNs: 0, WallNs: 2000},
	}
	if !reflect.DeepEqual(r.PerShard, want) {
		t.Fatalf("per-shard:\n got %+v\nwant %+v", r.PerShard, want)
	}
	for _, s := range r.PerShard {
		if s.BusyNs+s.IdleNs+s.BarrierNs != s.WallNs {
			t.Errorf("shard %d: busy+idle+barrier = %d, wall = %d",
				s.Shard, s.BusyNs+s.IdleNs+s.BarrierNs, s.WallNs)
		}
	}
}

func TestCollectorLazyInit(t *testing.T) {
	col := rt.NewCollector(0) // sizes itself on the first window
	col.ObserveWindow(window(0, 9, 100, 0,
		[]int64{0, 50}, []int64{50, 50}, []uint64{1, 1}))
	if r := col.Snapshot(); r.Hosts != 2 || len(r.PerShard) != 2 {
		t.Fatalf("hosts=%d, %d shard rows, want 2/2", r.Hosts, len(r.PerShard))
	}
}

func TestSeriesCoarsening(t *testing.T) {
	const shards, windows = 2, 100
	col := rt.NewCollector(shards)
	col.SetMaxSeries(8)
	for i := 0; i < windows; i++ {
		a := sim.Time(i * 10)
		col.ObserveWindow(window(a, a+9, 10, 0,
			[]int64{0, 2}, []int64{6, 4}, []uint64{3, 1}))
	}
	r := col.Snapshot()
	if len(r.Series) > 9 { // 8 completed buckets + 1 pending partial
		t.Fatalf("series grew past the bound: %d buckets", len(r.Series))
	}
	if s := r.WindowsPerBucket; s&(s-1) != 0 || s == 0 {
		t.Fatalf("stride %d is not a power of two", s)
	}
	var wsum, esum, shardEv uint64
	for _, b := range r.Series {
		wsum += b.Windows
		esum += b.Events
		for _, s := range b.Shards {
			shardEv += s.Events
		}
		if b.End < b.Start {
			t.Fatalf("bucket [%d,%d] inverted", b.Start, b.End)
		}
	}
	if wsum != windows || esum != 4*windows || shardEv != 4*windows {
		t.Fatalf("coarsening lost data: windows=%d events=%d shardEvents=%d",
			wsum, esum, shardEv)
	}
	if r.Totals.Windows != windows || r.Totals.Events != 4*windows {
		t.Fatalf("totals: %d windows / %d events", r.Totals.Windows, r.Totals.Events)
	}
}

func TestAnalyzeAttribution(t *testing.T) {
	cases := []struct {
		name     string
		tot      rt.Bucket
		eff      float64
		dominant string
	}{
		{
			name: "all-busy",
			tot:  rt.Bucket{Windows: 10, BusyNs: 1000, WallNs: 1000},
			eff:  1, dominant: "none",
		},
		{
			name: "window-bound",
			tot:  rt.Bucket{Windows: 10, BusyNs: 400, WallNs: 1000, FlushNs: 0},
			eff:  0.4, dominant: "window",
		},
		{
			name: "merge-bound",
			tot:  rt.Bucket{Windows: 10, BusyNs: 500, WallNs: 600, FlushNs: 400},
			eff:  0.5, dominant: "merge",
		},
		{
			name: "busy-overshoot",
			tot:  rt.Bucket{Windows: 1, BusyNs: 1003, WallNs: 1000},
			eff:  1, dominant: "none",
		},
	}
	for _, tc := range cases {
		s := rt.Analyze(&rt.Report{Totals: tc.tot})
		if diff := s.Efficiency - tc.eff; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: efficiency %.4f, want %.4f", tc.name, s.Efficiency, tc.eff)
		}
		if s.Dominant != tc.dominant {
			t.Errorf("%s: dominant %q, want %q", tc.name, s.Dominant, tc.dominant)
		}
		if sum := s.Efficiency + s.LostWindow + s.LostMerge; sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: efficiency+losses = %.4f, want ~1", tc.name, sum)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	col := rt.NewCollector(2)
	w0 := window(0, 49, 500, 40,
		[]int64{0, 10}, []int64{400, 300}, []uint64{7, 5})
	w0.Retained, w0.Injected, w0.MergedBytes = 5, 4, 320
	col.ObserveWindow(w0)
	col.ObserveWindow(window(50, 99, 700, 0,
		[]int64{5, -1}, []int64{600, 0}, []uint64{9, 0}))
	rep := col.Snapshot()

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := rt.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, rep)
	}
}

func TestWriteScalingOutput(t *testing.T) {
	col := rt.NewCollector(2)
	col.ObserveWindow(window(0, 49, 1000, 50,
		[]int64{0, 200}, []int64{900, 500}, []uint64{40, 20}))
	rep := col.Snapshot()

	var buf bytes.Buffer
	if err := rt.WriteScaling(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"simulator runtime report: 2 hosts",
		"event execution",
		"dominant loss:",
		"per-shard",
		"timeline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scaling report missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := rt.WriteScalingCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "start_cycle,") {
		t.Errorf("scaling CSV = %q", buf.String())
	}
}

func TestEmitChrome(t *testing.T) {
	col := rt.NewCollector(2)
	col.ObserveWindow(window(0, 999, 1000, 0,
		[]int64{0, 100}, []int64{800, 500}, []uint64{10, 5}))
	rep := col.Snapshot()

	var lines []string
	rt.EmitChrome(rep, func(format string, args ...any) {
		lines = append(lines, strings.TrimSpace(fmt.Sprintf(format, args...)))
	})
	if len(lines) == 0 {
		t.Fatal("no chrome events emitted")
	}
	var slices, threads int
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("invalid JSON object: %s", l)
		}
		if strings.Contains(l, `"ph":"X"`) {
			slices++
		}
		if strings.Contains(l, `"thread_name"`) {
			threads++
		}
	}
	if threads != 2 {
		t.Errorf("%d shard tracks, want 2", threads)
	}
	// Shard 0: busy + barrier (idle 0 is skipped); shard 1: idle+busy+barrier.
	if slices != 5 {
		t.Errorf("%d phase slices, want 5:\n%s", slices, strings.Join(lines, "\n"))
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{`"name":"busy"`, `"name":"idle"`, `"name":"barrier"`,
		`"name":"simulator runtime"`} {
		if !strings.Contains(joined, want) {
			t.Errorf("chrome track missing %s", want)
		}
	}

	// Nil and empty reports must emit nothing.
	rt.EmitChrome(nil, func(string, ...any) { t.Error("nil report emitted") })
	rt.EmitChrome(&rt.Report{}, func(string, ...any) { t.Error("empty report emitted") })
}

func TestOnWindowCallback(t *testing.T) {
	col := rt.NewCollector(1)
	var got []uint64
	col.SetOnWindow(func(total uint64) { got = append(got, total) })
	for i := 0; i < 3; i++ {
		a := sim.Time(i * 10)
		col.ObserveWindow(window(a, a+9, 10, 0,
			[]int64{0}, []int64{10}, []uint64{5}))
	}
	if !reflect.DeepEqual(got, []uint64{5, 10, 15}) {
		t.Fatalf("callback totals = %v, want [5 10 15]", got)
	}
}

// TestObserveWindowNoAlloc pins the collector's steady-state cost: once
// initialized, recording a window — including series coarsening — touches no
// allocator. A tight max-series forces the coarsening path to run during the
// measurement.
func TestObserveWindowNoAlloc(t *testing.T) {
	col := rt.NewCollector(4)
	col.SetMaxSeries(4)
	rec := window(0, 9, 100, 10,
		[]int64{0, 5, -1, 20}, []int64{80, 60, 0, 40}, []uint64{3, 2, 0, 1})
	rec.Retained, rec.Injected, rec.MergedBytes = 3, 2, 128
	for i := 0; i < 64; i++ {
		col.ObserveWindow(rec)
	}
	avg := testing.AllocsPerRun(500, func() {
		col.ObserveWindow(rec)
	})
	if avg != 0 {
		t.Fatalf("ObserveWindow allocates %.1f per window, want 0", avg)
	}
}

// TestClusterTelemetryZeroAllocSerial is the end-to-end guard for the window
// loop with telemetry attached: scheduling and retiring events through
// Cluster.Run with a live Collector must not allocate per event.
func TestClusterTelemetryZeroAllocSerial(t *testing.T) {
	const shards, perShard = 4, 64
	c := sim.NewCluster(3, shards, 32)
	col := rt.NewCollector(shards)
	c.SetWindowObserver(col)
	lcg := uint64(0x9E3779B97F4A7C15)
	nop := func() {}
	round := func() {
		for s := 0; s < shards; s++ {
			eng := c.Engine(s)
			for k := 0; k < perShard; k++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				eng.Schedule(1+sim.Time(lcg>>58), nop)
			}
		}
		if err := c.Run(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		round() // warm the engine slabs and the collector series
	}
	avg := testing.AllocsPerRun(64, round)
	if avg != 0 {
		perEvent := avg / (shards * perShard)
		t.Fatalf("serial run with telemetry allocates %.2f per round (%.4f per event), want 0",
			avg, perEvent)
	}
	if col.Events() == 0 || col.Windows() == 0 {
		t.Fatalf("collector saw nothing: %d events / %d windows", col.Events(), col.Windows())
	}
}

func BenchmarkRuntimeTelemetryObserveWindow(b *testing.B) {
	col := rt.NewCollector(8)
	starts := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	busys := []int64{90, 80, 70, 60, 50, 40, 30, 20}
	evs := []uint64{9, 8, 7, 6, 5, 4, 3, 2}
	rec := window(0, 99, 100, 10, starts, busys, evs)
	col.ObserveWindow(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.ObserveWindow(rec)
	}
}

// BenchmarkRuntimeTelemetryClusterSerial measures the whole serial window loop
// with a collector attached — compare against BenchmarkClusterWindowSerial in
// internal/sim to see what telemetry costs end to end.
func BenchmarkRuntimeTelemetryClusterSerial(b *testing.B) {
	const shards, perShard = 8, 128
	c := sim.NewCluster(1, shards, 300)
	col := rt.NewCollector(shards)
	c.SetWindowObserver(col)
	lcg := uint64(0x9E3779B97F4A7C15)
	nop := func() {}
	round := func() {
		for s := 0; s < shards; s++ {
			eng := c.Engine(s)
			for k := 0; k < perShard; k++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				eng.Schedule(1+sim.Time(lcg>>58), nop)
			}
		}
		if err := c.Run(1, nil); err != nil {
			b.Fatal(err)
		}
	}
	round() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
