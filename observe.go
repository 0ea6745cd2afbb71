package cord

import (
	"io"

	"cord/internal/obs"
	rt "cord/internal/obs/runtime"
	"cord/internal/proto"
)

// TraceOptions configures SimulateObserved.
type TraceOptions struct {
	// Sample keeps 1-in-Sample traced transactions (deterministic,
	// counter-based; <= 1 records everything). Metrics are never sampled.
	Sample int
	// MetricsOnly skips event capture entirely and keeps only the metrics
	// registry, for long runs where the event stream would be too large.
	MetricsOnly bool
	// Recorder, when non-nil, receives the observation instead of a freshly
	// created recorder (Sample and MetricsOnly are then ignored — configure
	// the recorder directly). The live introspection server attaches this
	// way so /metrics can scrape a run in flight.
	Recorder *obs.Recorder
	// Runtime, when non-nil, collects simulator-runtime telemetry (per-shard
	// window timings, cross-host merge census). It rides a channel of its
	// own: attaching it never changes the deterministic trace/metrics/stats
	// bytes.
	Runtime *rt.Collector
}

// NewRuntimeCollector creates a simulator-runtime telemetry collector to pass
// as TraceOptions.Runtime (the collector type itself lives in an internal
// package, so external callers construct it here; its methods — Snapshot,
// Windows, Events, SetOnWindow — remain fully usable on the returned value).
// The collector sizes itself to the system's host count on the first observed
// window.
func NewRuntimeCollector() *rt.Collector { return rt.NewCollector(0) }

// AnalyzeRuntime computes the overhead breakdown of a runtime report (a
// Collector.Snapshot): the share of elapsed simulator time spent executing
// events, the shares lost to window bookkeeping and the cross-host merge, and
// a per-bucket timeline — the same analysis `cordtrace scaling` renders.
func AnalyzeRuntime(rep *rt.Report) rt.Scaling { return rt.Analyze(rep) }

// WriteRuntimeScaling renders a report's scaling analysis as the
// human-readable table `cordtrace scaling` prints.
func WriteRuntimeScaling(w io.Writer, rep *rt.Report) error {
	return rt.WriteScaling(w, rep)
}

// Observation holds what a traced simulation recorded: the structured event
// stream and the metrics registry.
type Observation struct {
	rec *obs.Recorder
}

// Events returns the recorded event stream (nil under MetricsOnly).
func (o *Observation) Events() []obs.Event { return o.rec.Events() }

// Metrics returns the metrics registry.
func (o *Observation) Metrics() *obs.Metrics { return o.rec.Metrics() }

// WriteJSONL exports the event stream as JSON lines.
func (o *Observation) WriteJSONL(w io.Writer) error {
	return obs.WriteJSONL(w, o.rec.Events())
}

// WriteChromeTrace exports the event stream as Chrome trace_event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
func (o *Observation) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, o.rec.Events())
}

// WriteChromeTraceRuntime is WriteChromeTrace with the simulator-runtime
// timeline track group appended: one track per host shard, window slices
// split into idle/busy/barrier from the report's wall-clock measurements.
// Because those measurements are non-deterministic, a trace written this way
// is not byte-stable across runs — it is opt-in (cordsim only merges the
// track when a runtime collector was attached), and the plain
// WriteChromeTrace output stays deterministic.
func (o *Observation) WriteChromeTraceRuntime(w io.Writer, rep *rt.Report) error {
	return obs.WriteChromeTraceWith(w, o.rec.Events(), func(emit func(format string, args ...any)) {
		rt.EmitChrome(rep, emit)
	})
}

// WriteMetricsJSON exports the metrics registry as indented JSON.
func (o *Observation) WriteMetricsJSON(w io.Writer) error {
	return o.rec.Metrics().WriteJSON(w)
}

// SimulateObserved is Simulate with observability attached: it additionally
// returns the recorded protocol events and metrics. Tracing never perturbs the
// simulation — the returned Result is identical to an untraced Simulate run
// with the same arguments.
func SimulateObserved(w Workload, p Protocol, s System, opt TraceOptions) (*Result, *Observation, error) {
	nc, err := s.netConfig()
	if err != nil {
		return nil, nil, err
	}
	b, err := builder(p)
	if err != nil {
		return nil, nil, err
	}
	cores, progs, err := w.Programs(nc)
	if err != nil {
		return nil, nil, err
	}
	rec := opt.Recorder
	if rec == nil {
		rec = obs.New()
		if opt.MetricsOnly {
			rec = obs.NewMetricsOnly()
		}
		rec.SetSample(opt.Sample)
	}
	sys := proto.NewSystem(s.Seed, nc, s.mode())
	sys.Observe(rec)
	if opt.Runtime != nil {
		sys.AttachRuntime(opt.Runtime)
	}
	run, err := proto.Exec(sys, b, cores, progs)
	if err != nil {
		return nil, nil, err
	}
	return &Result{run: run}, &Observation{rec: rec}, nil
}
