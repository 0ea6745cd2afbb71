package main

// metricSpec names one reported metric. The end-to-end and per-layer lists
// below are the benchmark's vocabulary; BENCHMARK.json at the repository
// root repeats the names, units and directions (TestSpecMatchesBenchmarkJSON
// keeps the two in step) and adds the regression bounds, which the diff view
// reads from there.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves records, for a per-layer metric, the end-to-end metric and the
	// workload a change to that layer should move. Later issues cite it
	// when they predict where a gain shows.
	Moves string
}

// endToEnd are the metrics a user of the simulator or the checker waits
// on, measured with tracing off. Every workload reports all of them. The
// times are the process's CPU seconds, not wall seconds (see cpuTime).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "run_cpu_s", Unit: "s", Better: "lower"},
	{Name: "work_per_cpu_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// protoNames are the four compared protocols, in the paper's plot order.
var protoNames = []string{"MP", "CORD", "SO", "WB"}

// litmusKinds groups checker instances by the protocol their processors
// run; "mixed" is a configuration with more than one kind.
var litmusKinds = []string{"CORD", "SO", "MP", "WB", "mixed"}

// sendKinds are the NoC send rungs of the ladder.
var sendKinds = []string{"intra", "inter", "partitioned"}

// obsModes are the recorder configurations the obs rung compares against
// a nil recorder.
var obsModes = []string{"metrics", "sampled", "full"}

// spanNames are the spans the traced run records around each call into a
// layer; trace.self_s.<name> is a span's duration minus what its children
// cover.
var spanNames = []string{
	"job", "workload.programs", "kvsvc.build", "proto.new_system",
	"proto.exec", "proto.build", "litmus.matrix", "litmus.instance", "litmus.spotcheck",
}

const (
	movesKV      = "work_per_cpu_s@kv"
	movesSimPath = "run_cpu_s@apps, work_per_cpu_s@kv"
	movesVerify  = "run_cpu_s@verify"
	movesNone    = "none (timed runs trace nothing)"
)

// perLayer lists the metrics of the traced run. Every workload reports all
// of them: a layer the workload does not run is measured on a miniature job
// list of a workload that does (see layers.probes). The model.* entries are
// deterministic numbers about the modelled design, not the simulator's
// speed: a simulator-speed change must leave them exactly unchanged (the
// golden digests enforce it), a protocol change moves them. An untraced run
// prints them too.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"workload.programs_s", "s", "lower", "setup_s, peak_rss_mb@apps; none@kv"},
		{"workload.ops", "count", "lower", "setup_s@apps"},
		{"workload.allocs_per_op", "1", "lower", "setup_s, peak_rss_mb@apps"},
		{"kvsvc.build_s", "s", "lower", "setup_s@kv"},
		{"kvsvc.next_calls", "count", "lower", movesKV},
		{"kvsvc.next_ns", "ns", "lower", movesKV},
		{"proto.new_system_s", "s", "lower", "setup_s@kv, setup_s@apps"},
		{"proto.build_s", "s", "lower", movesSimPath},
	}
	for _, p := range protoNames {
		m = append(m,
			metricSpec{"proto.exec_s." + p, "s", "lower", movesSimPath},
			metricSpec{"proto.events." + p, "count", "lower", movesSimPath},
			metricSpec{"proto.ns_per_event." + p, "ns", "lower", movesSimPath},
			metricSpec{"proto.allocs_per_event." + p, "1", "lower", movesSimPath})
	}
	for _, k := range sendKinds {
		m = append(m, metricSpec{"noc.send_ns." + k, "ns", "lower", movesSimPath})
	}
	for _, k := range sendKinds {
		m = append(m, metricSpec{"noc.send_allocs." + k, "1", "lower", movesSimPath})
	}
	m = append(m,
		metricSpec{"noc.msgs", "count", "lower", movesSimPath},
		metricSpec{"noc.flush_s", "s", "lower", "work_per_cpu_s@kv, run_cpu_s@apps"},
		metricSpec{"noc.merged_msgs", "count", "lower", "work_per_cpu_s@kv, run_cpu_s@apps"},
		metricSpec{"sim.ns_per_event", "ns", "lower", "floor of run_cpu_s@apps"},
		metricSpec{"sim.allocs_per_event", "1", "lower", "floor of run_cpu_s@apps"},
		metricSpec{"sim.cluster.windows", "count", "lower", movesKV + "; little@apps; none@verify"},
		metricSpec{"sim.cluster.barrier_s", "s", "lower", movesKV + "; little@apps; none@verify"},
		metricSpec{"sim.cluster.efficiency", "1", "higher", movesKV + "; little@apps; none@verify"},
		metricSpec{"sim.cluster.lost_merge", "1", "lower", movesKV + "; little@apps; none@verify"},
		metricSpec{"sim.cluster.speedup", "x", "higher", movesKV + "; little@apps; none@verify"})
	for _, k := range obsModes {
		m = append(m, metricSpec{"obs.overhead_ns_per_event." + k, "ns", "lower", movesNone})
	}
	m = append(m,
		metricSpec{"litmus.instances", "count", "higher", movesVerify},
		metricSpec{"litmus.states", "count", "lower", movesVerify},
		metricSpec{"litmus.states_raw", "count", "lower", movesVerify},
		metricSpec{"litmus.reduction_ratio", "x", "higher", movesVerify},
		metricSpec{"litmus.states_per_s", "1/s", "higher", movesVerify},
		metricSpec{"litmus.instance_ms.p50", "ms", "lower", movesVerify},
		metricSpec{"litmus.instance_ms.p99", "ms", "lower", movesVerify},
		metricSpec{"litmus.instance_ms.max", "ms", "lower", movesVerify})
	for _, k := range litmusKinds {
		m = append(m, metricSpec{"litmus.check_s." + k, "s", "lower", movesVerify})
	}
	m = append(m,
		metricSpec{"litmus.spotcheck_s", "s", "lower", movesVerify},
		metricSpec{"trace.overhead_s", "s", "lower", movesNone},
		metricSpec{"trace.spans", "count", "lower", movesNone})
	for _, s := range spanNames {
		m = append(m, metricSpec{"trace.self_s." + s, "s", "lower", "run_cpu_s or setup_s@the workloads that call " + s})
	}
	m = append(m,
		metricSpec{"model.paper_err_time", "1", "lower", "protocol changes only@apps"},
		metricSpec{"model.paper_err_traffic", "1", "lower", "protocol changes only@apps"},
		metricSpec{"model.kv_sim_p99_ns", "ns", "lower", "protocol changes only@kv"})
	return m
}

// unitOf returns the unit of a named metric from either list.
func unitOf(name string) string {
	for _, l := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range l {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	return ""
}
