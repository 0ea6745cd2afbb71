package proto_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/proto/cord"
	"cord/internal/proto/mp"
	"cord/internal/proto/so"
	"cord/internal/proto/wb"
	"cord/internal/workload"
)

// These guards extend the kernel regression suite to the protocol adapters:
// every protocol decision is a call into internal/proto/core, wire messages
// are recycled through the System's free list, and delayed directory work rides the engine's typed
// delivery path, so nothing on the sim hot path may allocate per event. The
// committed BENCH_kernel.json is the baseline; the assertions allow headroom
// for amortization noise but catch the failure mode that matters (a send,
// closure or core-rule call that boxes, clones, or builds garbage per
// message).

type kernelBaseline struct {
	Protocols []struct {
		Scheme        string  `json:"scheme"`
		Fabric        string  `json:"fabric"`
		AllocsPerEvnt float64 `json:"allocs_per_event"`
	} `json:"protocols"`
}

// baselineAllocs returns the committed allocs/event for scheme on the CXL
// fabric from BENCH_kernel.json at the repo root.
func baselineAllocs(t *testing.T, scheme string) float64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var base kernelBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}
	for _, p := range base.Protocols {
		if p.Scheme == scheme && p.Fabric == "CXL" {
			return p.AllocsPerEvnt
		}
	}
	t.Fatalf("no %s/CXL row in BENCH_kernel.json", scheme)
	return 0
}

func adapterBuilders() []proto.Builder {
	return []proto.Builder{cord.New(), so.New(), mp.New(), wb.New()}
}

// runMicro executes the same micro workload cordbench -kernel uses and
// returns (events, allocs/event, ns/event) for the whole run, system
// construction included — matching how the baseline was measured.
func runMicro(t testing.TB, b proto.Builder, rounds int) (uint64, float64, float64) {
	t.Helper()
	p := workload.Micro(256, 64, 3, rounds)
	nc := noc.CXLConfig()
	cores, progs, err := p.Programs(nc)
	if err != nil {
		t.Fatalf("%s: programs: %v", b.Name(), err)
	}
	sys := proto.NewSystem(42, nc, proto.RC)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if _, err := proto.Exec(sys, b, cores, progs); err != nil {
		t.Fatalf("%s: exec: %v", b.Name(), err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := sys.Executed()
	return n, float64(m1.Mallocs-m0.Mallocs) / float64(n),
		float64(wall.Nanoseconds()) / float64(n)
}

// TestAdapterAllocsWithinBaseline runs each refactored adapter against the
// committed BENCH_kernel.json allocation figures. A regression here means
// the core-rule delegation started allocating per event.
func TestAdapterAllocsWithinBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full micro workload; skipped in -short")
	}
	for _, b := range adapterBuilders() {
		t.Run(b.Name(), func(t *testing.T) {
			base := baselineAllocs(t, b.Name())
			// Shorter run than the baseline's 20000 rounds, so the fixed
			// startup allocations (about 0.02/event at 4000 rounds) amortize
			// over fewer events: allow 1.1x plus that much slack again.
			events, allocs, ns := runMicro(t, b, 4000)
			t.Logf("%s: %d events, %.3f allocs/event (baseline %.3f), %.0f ns/event",
				b.Name(), events, allocs, base, ns)
			if limit := base*1.1 + 0.04; allocs > limit {
				t.Errorf("%s allocates %.3f/event, baseline %.3f (limit %.3f): core-rule indirection is allocating on the hot path",
					b.Name(), allocs, base, limit)
			}
		})
	}
}

// TestAdapterSteadyStateAllocBound pins the steady-state allocation shape
// directly, independent of the JSON baseline. Every protocol allocates only
// at startup, about 0.01-0.02/event at 4000 rounds: wire messages and WB's
// dirty-line records are recycled.
func TestAdapterSteadyStateAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full micro workload; skipped in -short")
	}
	for _, b := range adapterBuilders() {
		t.Run(b.Name(), func(t *testing.T) {
			const limit = 0.05
			if _, allocs, _ := runMicro(t, b, 4000); allocs > limit {
				t.Errorf("%s: %.3f allocs/event exceeds the %.2f/event envelope", b.Name(), allocs, limit)
			}
		})
	}
}

// BenchmarkAdapterExec is the micro-benchmark counterpart: ns/event and
// allocs/event for one full protocol run per iteration, comparable (via the
// reported metrics) against BENCH_kernel.json.
func BenchmarkAdapterExec(b *testing.B) {
	for _, bl := range adapterBuilders() {
		b.Run(bl.Name(), func(b *testing.B) {
			p := workload.Micro(256, 64, 3, 2000)
			nc := noc.CXLConfig()
			cores, progs, err := p.Programs(nc)
			if err != nil {
				b.Fatal(err)
			}
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys := proto.NewSystem(42, nc, proto.RC)
				if _, err := proto.Exec(sys, bl, cores, progs); err != nil {
					b.Fatal(err)
				}
				events += sys.Executed()
			}
			b.StopTimer()
			if events > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			}
		})
	}
}
