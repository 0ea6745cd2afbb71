package main

import (
	"strings"
	"time"

	rt "cord/internal/obs/runtime"
)

// layers accumulates the traced passes' per-layer counters. Sums are kept
// raw and reduced per pass (or to ratios) only when a metric is read, so a
// ratio is always the quotient of two totals.
type layers struct {
	passes int
	sum    map[string]float64
	fixed  map[string]float64 // values taken as they are (rungs, model)
	// instanceMS are the checker instances' wall times.
	instanceMS []float64
	// col observes the partitioned cluster of every traced simulation.
	col *rt.Collector
	// spans are the traced passes' spans, set when the passes are done.
	spans []span
	// exercised are the prefixes of the metrics the passes measure.
	exercised []string
	// probes hold one pass each of the other workloads' miniature job
	// lists; a metric of a layer this workload does not run is read from
	// the first probe that runs it, so no layer reports a constant 0.
	probes []*layers
}

func newLayers(exercised []string) *layers {
	return &layers{sum: map[string]float64{}, fixed: map[string]float64{}, exercised: exercised}
}

// exercises reports whether the passes measure the named metric.
func (l *layers) exercises(name string) bool {
	for _, p := range l.exercised {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// metric reads one per-layer metric from the passes, or from a probe when
// the workload does not run that layer.
func (l *layers) metric(name string) float64 {
	if _, ok := l.fixed[name]; !ok && !l.exercises(name) {
		for _, p := range l.probes {
			if p.exercises(name) {
				return p.value(name)
			}
		}
	}
	return l.value(name)
}

// add accumulates v into the running total of name.
func (l *layers) add(name string, v float64) {
	if l != nil {
		l.sum[name] += v
	}
}

// set records a value reported as it is.
func (l *layers) set(name string, v float64) {
	if l != nil {
		l.fixed[name] = v
	}
}

// collector returns the runtime collector for a cluster of hosts shards,
// creating it on first use; a workload's simulations all share one shape.
func (l *layers) collector(hosts int) *rt.Collector {
	if l.col == nil {
		l.col = rt.NewCollector(hosts)
	}
	return l.col
}

// ratio divides two totals (0 when the denominator is).
func (l *layers) ratio(num, den string) float64 {
	if d := l.sum[den]; d != 0 {
		return l.sum[num] / d
	}
	return 0
}

// value computes one metric from this accumulator alone: a ratio of two
// totals, or a total averaged over the traced passes.
func (l *layers) value(name string) float64 {
	if v, ok := l.fixed[name]; ok {
		return v
	}
	if l.passes == 0 {
		return 0
	}
	n := float64(l.passes)
	if strings.HasPrefix(name, "trace.self_s.") {
		return selfTimes(l.spans)[strings.TrimPrefix(name, "trace.self_s.")].Seconds() / n
	}
	if v, ok := l.fromCollector(name, n); ok {
		return v
	}
	p := name[strings.LastIndexByte(name, '.')+1:] // the protocol of a proto.* metric
	switch {
	case name == "trace.spans":
		return float64(len(l.spans)) / n
	case name == "workload.allocs_per_op":
		return l.ratio("workload.allocs", "workload.ops")
	case name == "kvsvc.next_ns":
		return l.ratio("kvsvc.next_total_ns", "kvsvc.next_calls")
	case strings.HasPrefix(name, "proto.ns_per_event."):
		return 1e9 * l.ratio("proto.exec_s."+p, "proto.events."+p)
	case strings.HasPrefix(name, "proto.allocs_per_event."):
		return l.ratio("proto.allocs."+p, "proto.events."+p)
	case name == "litmus.reduction_ratio":
		return l.ratio("litmus.states_raw", "litmus.states_verified")
	case name == "litmus.states_per_s":
		return l.ratio("litmus.states", "litmus.matrix_s")
	case name == "litmus.instance_ms.p50":
		return quantile(l.instanceMS, 0.5)
	case name == "litmus.instance_ms.p99":
		return quantile(l.instanceMS, 0.99)
	case name == "litmus.instance_ms.max":
		return quantile(l.instanceMS, 1)
	}
	return l.sum[name] / n
}

// fromCollector reads the metrics the runtime collector measures: window
// telemetry from the cluster and the flush census from the network, over n
// passes. ok is false for every other name.
func (l *layers) fromCollector(name string, n float64) (v float64, ok bool) {
	switch name {
	case "sim.cluster.windows", "sim.cluster.barrier_s", "sim.cluster.efficiency",
		"sim.cluster.lost_merge", "noc.flush_s", "noc.merged_msgs":
	default:
		return 0, false
	}
	if l.col == nil {
		return 0, true
	}
	rep := l.col.Snapshot()
	switch name {
	case "sim.cluster.windows":
		return float64(rep.Totals.Windows) / n, true
	case "sim.cluster.barrier_s":
		return time.Duration(rep.Totals.BarrierNs).Seconds() / n, true
	case "sim.cluster.efficiency":
		return rt.Analyze(rep).Efficiency, true
	case "sim.cluster.lost_merge":
		return rt.Analyze(rep).LostMerge, true
	case "noc.flush_s":
		return time.Duration(rep.Totals.FlushNs).Seconds() / n, true
	default: // noc.merged_msgs
		return float64(rep.Totals.Injected) / n, true
	}
}
