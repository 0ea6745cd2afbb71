package kvsvc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/cord"
	"cord/internal/proto/mp"
	"cord/internal/proto/so"
	"cord/internal/proto/wb"
	"cord/internal/sim"
	"cord/internal/workload/kvsvc"
)

// testConfig is a small closed-loop run that still exercises every request
// path: puts with index updates, warm gets, and version-waiting gets.
func testConfig() kvsvc.Config {
	cfg := kvsvc.Default()
	cfg.Clients = 4
	cfg.Requests = 6
	cfg.ThinkCycles = 500
	return cfg
}

func netConfig(t testing.TB, hosts int) noc.Config {
	t.Helper()
	nc := noc.CXLConfig()
	nc.Hosts = hosts
	if err := nc.Validate(); err != nil {
		t.Fatal(err)
	}
	return nc
}

// runService builds a fresh service and executes it to completion, returning
// the service (for stats) — rec may be nil.
func runService(t testing.TB, cfg kvsvc.Config, hosts int, b proto.Builder, rec *obs.Recorder) *kvsvc.Service {
	t.Helper()
	nc := netConfig(t, hosts)
	svc, err := cfg.Build(nc)
	if err != nil {
		t.Fatal(err)
	}
	sys := proto.NewSystem(42, nc, proto.RC)
	if rec != nil {
		sys.Observe(rec)
	}
	if _, err := proto.ExecSources(sys, b, svc.Cores(), svc.Sources()); err != nil {
		t.Fatalf("%s hosts=%d: %v", b.Name(), hosts, err)
	}
	return svc
}

// expectedRequests is the exact request census a completed run must show:
// every session finishes all its requests, and the put/get split follows the
// deterministic Bresenham schedule (never the PRNG).
func expectedRequests(cfg kvsvc.Config, cores int) (total, puts uint64) {
	perCore := uint64(cfg.Clients * cfg.Requests)
	putsPerCore := perCore * uint64(100-cfg.GetPct) / 100
	return uint64(cores) * perCore, uint64(cores) * putsPerCore
}

// TestKVServiceCompletesAllProtocols is the liveness gate: the service must
// run to completion — no acquire deadlock — under all four protocols, with
// every configured request accounted for.
func TestKVServiceCompletesAllProtocols(t *testing.T) {
	for _, b := range []proto.Builder{cord.New(), so.New(), mp.New(), wb.New()} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			cfg := testConfig()
			svc := runService(t, cfg, 2, b, nil)
			st := svc.Stats()
			total, puts := expectedRequests(cfg, len(svc.Cores()))
			if st.Total() != total {
				t.Fatalf("completed %d requests, want %d", st.Total(), total)
			}
			if st.Completed[obs.ReqPut] != puts {
				t.Fatalf("completed %d puts, want %d", st.Completed[obs.ReqPut], puts)
			}
			d := st.Overall()
			if d.Count() != total || d.Max() == 0 {
				t.Fatalf("latency histogram count=%d max=%d, want count=%d and max>0",
					d.Count(), d.Max(), total)
			}
		})
	}
}

// TestKVServiceGetHeavyAndPutHeavy runs the schedule extremes: 90% gets
// (wants lean on the publication floor) and 100% puts. Both must complete.
func TestKVServiceGetHeavyAndPutHeavy(t *testing.T) {
	for _, pct := range []int{0, 90} {
		cfg := testConfig()
		cfg.GetPct = pct
		svc := runService(t, cfg, 2, cord.New(), nil)
		total, puts := expectedRequests(cfg, len(svc.Cores()))
		st := svc.Stats()
		if st.Total() != total || st.Completed[obs.ReqPut] != puts {
			t.Fatalf("GetPct=%d: completed %d (%d puts), want %d (%d puts)",
				pct, st.Total(), st.Completed[obs.ReqPut], total, puts)
		}
	}
}

// TestKVServiceOpenLoopCompletes runs the pre-scheduled-arrivals mode, where
// latency includes queueing delay behind earlier requests of the same core.
func TestKVServiceOpenLoopCompletes(t *testing.T) {
	cfg := testConfig()
	cfg.OpenLoop = true
	cfg.ArrivalCycles = 300
	svc := runService(t, cfg, 2, cord.New(), nil)
	total, _ := expectedRequests(cfg, len(svc.Cores()))
	if st := svc.Stats(); st.Total() != total {
		t.Fatalf("open loop completed %d requests, want %d", st.Total(), total)
	}
}

// artifacts renders everything a KV run externalizes: the JSONL event stream
// (KReqDone included), the metrics JSON (request latency rows included), and
// a service-stats summary.
func artifacts(t *testing.T, hosts int) []byte {
	t.Helper()
	rec := obs.New()
	svc := runService(t, testConfig(), hosts, cord.New(), rec)
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if err := rec.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	overall := st.Overall()
	summary := struct {
		Completed [obs.NumReqKinds]uint64
		P50, P99  sim.Time
	}{st.Completed, overall.Quantile(0.5), overall.Quantile(0.99)}
	if err := json.NewEncoder(&buf).Encode(summary); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKVServiceByteIdentity is the closed-loop analogue of the root
// double-run battery: because sources draw randomness only at points fixed
// by their core's own pull sequence, the full exported artifacts must be
// byte-identical across double runs.
func TestKVServiceByteIdentity(t *testing.T) {
	for _, hosts := range []int{2, 8} {
		hosts := hosts
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			base := artifacts(t, hosts)
			if len(base) == 0 {
				t.Fatal("run produced no artifacts — the battery is vacuous")
			}
			if again := artifacts(t, hosts); !bytes.Equal(base, again) {
				t.Fatal("double runs diverge")
			}
		})
	}
}

// drain pulls a source's entire op stream directly (no engine), advancing a
// synthetic clock past every compute/idle gap, and returns the op count.
func drain(src *kvsvc.Source) int {
	now, n := sim.Time(0), 0
	for {
		op, ok := src.Next(now)
		if !ok {
			return n
		}
		n++
		now += op.Cycles + 30
	}
}

// TestKVServiceSourceZeroAlloc is the hot-path guard the OpSource contract
// promises: once built, pulling a source's whole stream — session heap churn,
// Zipf draws, latency recording — performs zero heap allocations.
func TestKVServiceSourceZeroAlloc(t *testing.T) {
	const runs = 3
	nc := netConfig(t, 2)
	svcs := make([]*kvsvc.Service, runs+1)
	for i := range svcs {
		svc, err := testConfig().Build(nc)
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, src := range svcs[i].SourceList() {
			if drain(src) == 0 {
				t.Fatal("source yielded no ops")
			}
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Source.Next allocated %.1f times per full drain, want 0", allocs)
	}
}

// benchKVService executes full service runs and reports service-level rates:
// simulated requests per wall-clock second and heap allocations per request.
func benchKVService(b *testing.B, builder func() proto.Builder, hosts int) {
	cfg := kvsvc.Default()
	nc := netConfig(b, hosts)
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		svc, err := cfg.Build(nc)
		if err != nil {
			b.Fatal(err)
		}
		sys := proto.NewSystem(42, nc, proto.RC)
		if _, err := proto.ExecSources(sys, builder(), svc.Cores(), svc.Sources()); err != nil {
			b.Fatal(err)
		}
		st := svc.Stats()
		total += st.Total()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(total), "allocs/req")
}

func BenchmarkKVServiceCORD(b *testing.B) {
	benchKVService(b, func() proto.Builder { return cord.New() }, 2)
}
func BenchmarkKVServiceSO(b *testing.B) {
	benchKVService(b, func() proto.Builder { return so.New() }, 2)
}
