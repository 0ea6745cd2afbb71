package cord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cord/internal/exp"
	rt "cord/internal/obs/runtime"
	"cord/internal/proto"
)

func checkJSON(t *testing.T, label string, b []byte) {
	t.Helper()
	if !json.Valid(b) {
		t.Errorf("%s is not valid JSON", label)
	}
}

// Runtime telemetry measures the simulator's own wall-clock behavior, which
// makes it non-deterministic by nature — so the quarantine contract matters:
// attaching a Collector must leave every deterministic artifact byte-identical
// to a run without one, and the collected report must internally account for
// all the wall time it claims to decompose. These tests gate both halves.

// runArtifactsRuntime is runArtifacts with a runtime Collector riding the run;
// it returns the deterministic artifacts plus the telemetry snapshot.
func runArtifactsRuntime(t *testing.T, hosts, workers int, seed int64) (trace, metrics, stats []byte, rep *rt.Report) {
	t.Helper()
	col := rt.NewCollector(hosts)
	trace, metrics, stats = runArtifactsWith(t, hosts, workers, seed, col)
	return trace, metrics, stats, col.Snapshot()
}

// TestTelemetryPreservesByteIdentity runs each configuration twice with
// telemetry attached and once without: all three must export byte-identical
// traces, metrics, and statistics. A collector that perturbed scheduling,
// PRNG draws, or injection order would diverge here.
func TestTelemetryPreservesByteIdentity(t *testing.T) {
	for _, hosts := range []int{2, 8} {
		for _, workers := range []int{1, 4} {
			hosts, workers := hosts, workers
			t.Run(fmt.Sprintf("hosts=%d,workers=%d", hosts, workers), func(t *testing.T) {
				baseTrace, baseMetrics, baseStats := runArtifacts(t, hosts, workers, 42)
				tr1, me1, st1, rep := runArtifactsRuntime(t, hosts, workers, 42)
				tr2, me2, st2, _ := runArtifactsRuntime(t, hosts, workers, 42)
				checkIdentical(t, "telemetry-vs-plain trace", baseTrace, tr1)
				checkIdentical(t, "telemetry-vs-plain metrics", baseMetrics, me1)
				checkIdentical(t, "telemetry-vs-plain stats", baseStats, st1)
				checkIdentical(t, "double-run trace", tr1, tr2)
				checkIdentical(t, "double-run metrics", me1, me2)
				checkIdentical(t, "double-run stats", st1, st2)
				if rep.Totals.Windows == 0 || rep.Totals.Events == 0 {
					t.Fatalf("collector recorded nothing: %+v", rep.Totals)
				}
			})
		}
	}
}

// TestScalingReportAccounting is the acceptance check for the telemetry math
// on a real 8-host run: every shard's busy+idle+barrier must tile its total
// window wall time within 1%, the shard event counts must sum to the run
// total, and the analysis must split the elapsed time into shares that sum
// to 1.
func TestScalingReportAccounting(t *testing.T) {
	_, _, _, rep := runArtifactsRuntime(t, 8, 1, 42)

	if rep.Hosts != 8 {
		t.Fatalf("report header: hosts=%d", rep.Hosts)
	}
	if rep.Totals.Windows == 0 {
		t.Fatal("no windows recorded")
	}
	var shardEvents uint64
	for _, s := range rep.PerShard {
		shardEvents += s.Events
		if s.Windows == 0 {
			t.Errorf("shard %d was never active", s.Shard)
			continue
		}
		tiled := s.BusyNs + s.IdleNs + s.BarrierNs
		diff := int64(tiled) - int64(s.WallNs)
		if diff < 0 {
			diff = -diff
		}
		if uint64(diff)*100 > s.WallNs {
			t.Errorf("shard %d: busy+idle+barrier = %dns vs wall %dns (off by %dns, > 1%%)",
				s.Shard, tiled, s.WallNs, diff)
		}
	}
	if shardEvents == 0 || shardEvents != rep.Totals.Events {
		t.Fatalf("per-shard events sum %d != totals %d", shardEvents, rep.Totals.Events)
	}
	if rep.Totals.Injected == 0 {
		t.Error("all-to-all run merged no cross-host messages")
	}

	sc := rt.Analyze(rep)
	if sc.Efficiency <= 0 || sc.Efficiency > 1.0001 {
		t.Errorf("efficiency %.4f out of (0,1]", sc.Efficiency)
	}
	if sum := sc.Efficiency + sc.LostWindow + sc.LostMerge; sum < 0.99 || sum > 1.01 {
		t.Errorf("efficiency+losses = %.4f, want ~1", sum)
	}

	var buf bytes.Buffer
	if err := rt.WriteScaling(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "event execution") {
		t.Errorf("scaling report output:\n%s", buf.String())
	}
}

// TestRuntimeChromeTrackOptIn checks the Chrome export contract: the default
// export carries no simulator-runtime track, the WithRuntime variant does,
// and both are valid JSON.
func TestRuntimeChromeTrackOptIn(t *testing.T) {
	s := CXLSystem()
	s.Hosts = 4
	col := rt.NewCollector(4)
	_, o, err := SimulateObserved(Alltoall(4, 2), CORD, s, TraceOptions{Runtime: col})
	if err != nil {
		t.Fatal(err)
	}
	var plain, withRT bytes.Buffer
	if err := o.WriteChromeTrace(&plain); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteChromeTraceRuntime(&withRT, col.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "simulator runtime") {
		t.Error("default Chrome export leaked the runtime track")
	}
	if !strings.Contains(withRT.String(), "simulator runtime") ||
		!strings.Contains(withRT.String(), `"cat":"simruntime"`) {
		t.Error("WriteChromeTraceRuntime missing the runtime track group")
	}
	checkJSON(t, "plain chrome trace", plain.Bytes())
	checkJSON(t, "runtime chrome trace", withRT.Bytes())
}

// TestSingleHostRuntimeRecordsWindows: a single-host system is a one-shard
// cluster, so a collector attached to it records that shard's windows and
// every event the run executed.
func TestSingleHostRuntimeRecordsWindows(t *testing.T) {
	nc := exp.NetConfig(exp.CXL)
	nc.Hosts = 1
	cores, progs := artifactMix(nc.Hosts, nc.TilesPerHost, 4)
	sys := proto.NewSystem(1, nc, proto.RC)
	col := rt.NewCollector(1)
	sys.AttachRuntime(col)
	if _, err := proto.Exec(sys, exp.Builder(exp.SchemeCORD), cores, progs); err != nil {
		t.Fatal(err)
	}
	rep := col.Snapshot()
	if rep.Hosts != 1 || rep.Totals.Windows == 0 {
		t.Fatalf("collector saw %d hosts and %d windows, want 1 host and some windows",
			rep.Hosts, rep.Totals.Windows)
	}
	if rep.Totals.Events != sys.Executed() || rep.PerShard[0].Events != sys.Executed() {
		t.Fatalf("collector counted %d events (shard 0: %d), the run executed %d",
			rep.Totals.Events, rep.PerShard[0].Events, sys.Executed())
	}
}

// TestPublicRuntimeHelpers drives the exported wrappers external callers use
// (the collector type is internal, so NewRuntimeCollector is the only way to
// construct one from outside the module).
func TestPublicRuntimeHelpers(t *testing.T) {
	s := CXLSystem()
	s.Hosts = 4
	col := NewRuntimeCollector()
	if _, _, err := SimulateObserved(Alltoall(4, 2), CORD, s, TraceOptions{Runtime: col}); err != nil {
		t.Fatal(err)
	}
	rep := col.Snapshot()
	if rep.Hosts != 4 {
		t.Fatalf("lazy-sized collector reports %d hosts, want 4", rep.Hosts)
	}
	sc := AnalyzeRuntime(rep)
	if sc.Windows == 0 || sc.Efficiency <= 0 {
		t.Fatalf("analysis empty: %+v", sc)
	}
	var buf bytes.Buffer
	if err := WriteRuntimeScaling(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "event execution") {
		t.Errorf("scaling table output:\n%s", buf.String())
	}
}
