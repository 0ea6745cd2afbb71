package live_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"cord/internal/obs"
	"cord/internal/obs/live"
	rt "cord/internal/obs/runtime"
	"cord/internal/sim"
)

// seedRuntime feeds a collector two synthetic windows, the first with a
// flush census, so every exported family has a non-zero value.
func seedRuntime() *rt.Collector {
	col := rt.NewCollector(2)
	col.ObserveWindow(&sim.WindowRecord{
		Anchor: 0, Deadline: 49, Active: 2,
		WallNs: 1000, FlushNs: 100,
		Retained: 5, Injected: 4, MergedBytes: 512,
		ShardStartNs: []int64{0, 100},
		ShardBusyNs:  []int64{800, 600},
		ShardEvents:  []uint64{30, 20},
	})
	col.ObserveWindow(&sim.WindowRecord{
		Anchor: 50, Deadline: 99, Active: 1,
		WallNs:       500,
		ShardStartNs: []int64{0, -1},
		ShardBusyNs:  []int64{500, 0},
		ShardEvents:  []uint64{10, 0},
	})
	return col
}

func TestServerRuntimeEndpoint(t *testing.T) {
	srv := newTestServer(t, nil, live.NewProgress(), nil)
	base := "http://" + srv.Addr()

	// No collector attached: /runtime explains itself instead of serving {}.
	code, body := get(t, base+"/runtime")
	if code != http.StatusNotFound || !strings.Contains(body, "no runtime collector") {
		t.Errorf("/runtime without collector: code %d body %q", code, body)
	}

	srv.SetRuntime(seedRuntime())
	code, body = get(t, base+"/runtime")
	if code != http.StatusOK {
		t.Fatalf("/runtime: code %d", code)
	}
	var rep rt.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/runtime not a report: %v\n%s", err, body)
	}
	if rep.Hosts != 2 || rep.Totals.Windows != 2 || rep.Totals.Events != 60 {
		t.Errorf("/runtime report = hosts %d windows %d events %d, want 2/2/60",
			rep.Hosts, rep.Totals.Windows, rep.Totals.Events)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: code %d", code)
	}
	for _, want := range []string{
		"cord_sim_windows_total 2",
		"cord_sim_events_total 60",
		`cord_sim_shard_busy_ns{shard="0"} 1300`,
		`cord_sim_shard_idle_ns{shard="1"} 100`,
		`cord_sim_shard_events_total{shard="1"} 20`,
		"cord_sim_outbox_injected_total 4",
		"cord_sim_outbox_merged_bytes_total 512",
		"cord_sim_outbox_retained_peak 5",
		"cord_sim_efficiency",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "cord_sim_steal_total") {
		t.Error("/metrics still exports the retired steal family")
	}
}

// TestMetricsLatencyHistogram checks the cumulative bucket family exported
// alongside the quantile summary: counts must be cumulative, the class label
// preserved, and the +Inf bucket equal to the sample count.
func TestMetricsLatencyHistogram(t *testing.T) {
	rec := obs.NewMetricsOnly()
	rec.ShareMetrics()
	seedMetrics(rec) // two ack latencies: 120 and 340 cycles
	srv := newTestServer(t, rec, live.NewProgress(), nil)

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: code %d", code)
	}
	for _, want := range []string{
		"# TYPE cord_msg_latency_cycles_bucket counter",
		`cord_msg_latency_cycles_bucket{class="ack",le="127"} 1`, // 120 only
		`cord_msg_latency_cycles_bucket{class="ack",le="511"} 2`, // 120 and 340
		`cord_msg_latency_cycles_bucket{class="ack",le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The existing summary family must be untouched by the histogram export.
	if !strings.Contains(body, `cord_msg_latency_cycles_count{class="ack"} 2`) {
		t.Error("/metrics lost the latency summary family")
	}
}
