package cord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// The conservative-parallel engine's contract is that the worker count is
// invisible: a partitioned simulation must produce byte-identical traces,
// metrics, and statistics whether its host shards run serially or on 8
// workers. These tests are the battery that gates the parallel scheduler —
// they compare complete exported artifacts, not summary numbers, so any
// reordering (a racy merge, a schedule-dependent PRNG draw, a non-total
// injection order) fails loudly.

// runArtifacts simulates an all-to-all workload on `hosts` hosts with the
// given worker count and returns the full exported artifacts: the JSONL
// event stream, the metrics registry JSON, and the run statistics JSON.
func runArtifacts(t *testing.T, hosts, workers int, seed int64) (trace, metrics, stats []byte) {
	t.Helper()
	s := CXLSystem() // jitter stays on: delivery skew must also be schedule-independent
	s.Hosts = hosts
	s.Seed = seed
	s.SimWorkers = workers
	w := Alltoall(hosts, 3)
	r, o, err := SimulateObserved(w, CORD, s, TraceOptions{})
	if err != nil {
		t.Fatalf("hosts=%d workers=%d: %v", hosts, workers, err)
	}
	return artifactsOf(t, r, o)
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
		t.Errorf("%s diverges at byte %d:\n  serial:   …%s…\n  parallel: …%s…",
			label, i, snip(base), snip(got))
	}
}

// TestWorkerCountByteIdentity is the tentpole gate: for every topology the
// parallel engine supports, runs at 2, 4, and 8 workers must be
// byte-identical to the 1-worker run of the same seed — trace, metrics, and
// statistics alike. The 64-host sweep runs only without -short.
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
				t.Fatal("serial run recorded no events — the battery is vacuous")
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

// TestParallelDoubleRunByteIdentity re-runs the same parallel configuration
// twice: even at the maximum worker count, two runs of one seed must agree
// byte-for-byte (no leakage of goroutine scheduling into results).
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
			s.SimWorkers = 8
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
