package cord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"cord/internal/obs"
	rt "cord/internal/obs/runtime"
	"cord/internal/proto"
)

// The partitioned engine's contract is that a simulation is a function of
// its inputs: runs of one seed must produce byte-identical traces, metrics,
// and statistics. These tests are the battery that gates the windowed
// scheduler — they compare complete exported artifacts, not summary
// numbers, so any reordering (a schedule-dependent PRNG draw, a non-total
// injection order) fails loudly.
//
// proto.System.Workers is ignored — hosts always run one after another —
// and stays only because perfbench's kv workload sets it to the CPU count.
// The battery sets it too, so a value that leaked into the schedule would
// show up here as well.

// runArtifacts simulates an all-to-all workload on `hosts` hosts with
// System.Workers set to workers and returns the full exported artifacts:
// the JSONL event stream, the metrics registry JSON, and the run statistics
// JSON.
func runArtifacts(t *testing.T, hosts, workers int, seed int64) (trace, metrics, stats []byte) {
	t.Helper()
	return runArtifactsWith(t, hosts, workers, seed, nil)
}

// runArtifactsWith is runArtifacts with an optional runtime collector
// attached; it runs the same steps as SimulateObserved.
func runArtifactsWith(t *testing.T, hosts, workers int, seed int64, col *rt.Collector) (trace, metrics, stats []byte) {
	t.Helper()
	s := CXLSystem() // jitter stays on: delivery skew must also be reproducible
	s.Hosts = hosts
	nc, err := s.netConfig()
	if err != nil {
		t.Fatal(err)
	}
	cores, progs, err := Alltoall(hosts, 3).Programs(nc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := builder(CORD)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	sys := proto.NewSystem(seed, nc, s.mode())
	sys.Workers = workers
	sys.Observe(rec)
	if col != nil {
		sys.AttachRuntime(col)
	}
	run, err := proto.Exec(sys, b, cores, progs)
	if err != nil {
		t.Fatalf("hosts=%d workers=%d: %v", hosts, workers, err)
	}
	return artifactsOf(t, &Result{run: run}, &Observation{rec: rec})
}

// artifactsOf exports a finished observed run: the JSONL event stream, the
// metrics registry JSON, and the run statistics JSON.
func artifactsOf(t *testing.T, r *Result, o *Observation) (trace, metrics, stats []byte) {
	t.Helper()
	var tb, mb bytes.Buffer
	if err := o.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteMetricsJSON(&mb); err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(r.Raw())
	if err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes(), sb
}

func checkIdentical(t *testing.T, label string, base, got []byte) {
	t.Helper()
	if !bytes.Equal(base, got) {
		i := 0
		for i < len(base) && i < len(got) && base[i] == got[i] {
			i++
		}
		lo, hi := i-60, i+60
		if lo < 0 {
			lo = 0
		}
		snip := func(b []byte) string {
			h := hi
			if h > len(b) {
				h = len(b)
			}
			if lo >= h {
				return "<ended>"
			}
			return string(b[lo:h])
		}
		t.Errorf("%s diverges at byte %d:\n  first:  …%s…\n  second: …%s…",
			label, i, snip(base), snip(got))
	}
}

// TestWorkerCountByteIdentity: for every topology the partitioned engine
// supports, runs with Workers at 2, 4, and 8 must be byte-identical to the
// Workers=1 run of the same seed — trace, metrics, and statistics alike —
// which also makes it a four-run determinism check. The 64-host sweep runs
// only without -short.
func TestWorkerCountByteIdentity(t *testing.T) {
	hostCounts := []int{2, 8}
	if !testing.Short() {
		hostCounts = append(hostCounts, 64)
	}
	for _, hosts := range hostCounts {
		hosts := hosts
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			baseTrace, baseMetrics, baseStats := runArtifacts(t, hosts, 1, 42)
			if len(baseTrace) == 0 {
				t.Fatal("run recorded no events — the battery is vacuous")
			}
			for _, workers := range []int{2, 4, 8} {
				tr, me, st := runArtifacts(t, hosts, workers, 42)
				checkIdentical(t, fmt.Sprintf("workers=%d trace", workers), baseTrace, tr)
				checkIdentical(t, fmt.Sprintf("workers=%d metrics", workers), baseMetrics, me)
				checkIdentical(t, fmt.Sprintf("workers=%d stats", workers), baseStats, st)
			}
		})
	}
}

// TestParallelDoubleRunByteIdentity re-runs one 8-host configuration twice:
// two runs of one seed must agree byte-for-byte. (The name dates from the
// goroutine-parallel window loop; the double-run check stands without it.)
func TestParallelDoubleRunByteIdentity(t *testing.T) {
	tr1, me1, st1 := runArtifacts(t, 8, 8, 7)
	tr2, me2, st2 := runArtifacts(t, 8, 8, 7)
	checkIdentical(t, "trace", tr1, tr2)
	checkIdentical(t, "metrics", me1, me2)
	checkIdentical(t, "stats", st1, st2)
}

// TestSeedsStillIndependent guards against the partitioned seeding collapsing
// streams: different seeds must still produce different jittered schedules.
func TestSeedsStillIndependent(t *testing.T) {
	_, _, st1 := runArtifacts(t, 8, 4, 1)
	_, _, st2 := runArtifacts(t, 8, 4, 2)
	if bytes.Equal(st1, st2) {
		t.Fatal("different seeds produced identical run statistics")
	}
}

// TestLargeTopologyScales validates the configurable-topology path end to
// end at the paper-scale host counts: 64- and 256-host systems must build,
// run under the partitioned engine, and produce cross-host traffic on every
// host. Gated behind -short (the 256-host run is the expensive one).
func TestLargeTopologyScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large-topology sweep; skipped in -short")
	}
	for _, hosts := range []int{64, 256} {
		hosts := hosts
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			s := CXLSystem()
			s.Hosts = hosts
			s.CoresPerHost = 2
			s.MeshCols = 2
			r, err := Simulate(Alltoall(hosts, 1), CORD, s)
			if err != nil {
				t.Fatal(err)
			}
			if r.InterHostBytes() == 0 {
				t.Fatal("no inter-host traffic on an all-to-all workload")
			}
			// ATA runs one core per host, so Procs maps 1:1 to hosts.
			if got := len(r.Raw().Procs); got != hosts {
				t.Fatalf("%d proc stats for %d hosts", got, hosts)
			}
			for h := range r.Raw().Procs {
				if r.Raw().Procs[h].Ops == 0 {
					t.Fatalf("host %d executed no ops", h)
				}
			}
		})
	}
}
