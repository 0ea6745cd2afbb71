package cord

import (
	"cord/internal/obs"
	rt "cord/internal/obs/runtime"
	"cord/internal/proto"
	"cord/internal/sim"
	"cord/internal/stats"
	"cord/internal/workload/kvsvc"
)

// KVService is the service-level workload: a sharded, replicated key-value
// service under closed- or open-loop client load, producing its op stream
// reactively at simulated time (it is kvsvc.Config; see that type's fields
// for the full parameter set). Where Workload measures how fast a protocol
// finishes a fixed trace, KVService measures how many requests per second it
// serves at what tail latency.
type KVService = kvsvc.Config

// KVServiceDefault returns a small closed-loop service configuration that
// differentiates the four protocols in a few hundred thousand simulated
// cycles. Override fields as needed; zero-valued niceties are filled in.
func KVServiceDefault() KVService { return kvsvc.Default() }

// KVResult exposes the measurements of one KV-service simulation: the usual
// run statistics plus the service-level request outcome.
type KVResult struct {
	run     *stats.Run
	st      kvsvc.Stats
	offered float64 // requests per cycle, from the built service
}

// ExecNanos is the end-to-end execution time in simulated nanoseconds.
func (r *KVResult) ExecNanos() float64 { return r.run.ExecNanos() }

// InterHostBytes is the total inter-PU traffic.
func (r *KVResult) InterHostBytes() uint64 { return r.run.Traffic.TotalInter() }

// Requests is the number of completed service requests (gets + puts).
func (r *KVResult) Requests() uint64 { return r.st.Total() }

// RequestsPerSecond is the achieved service throughput in requests per
// simulated second.
func (r *KVResult) RequestsPerSecond() float64 {
	ns := r.run.ExecNanos()
	if ns <= 0 {
		return 0
	}
	return float64(r.st.Total()) / (ns * 1e-9)
}

// OfferedRequestsPerSecond is the configured offered load in requests per
// simulated second — exact for the open loop, the zero-service-time ceiling
// for the closed loop. Achieved throughput saturating below this value means
// the service (or the protocol's ordering stalls) is the bottleneck.
func (r *KVResult) OfferedRequestsPerSecond() float64 {
	return r.offered * 1e9 / sim.Nanos(1)
}

// LatencyNanos returns the arrival-to-completion request latency across both
// request classes: mean, p50, p95 and p99, in nanoseconds.
func (r *KVResult) LatencyNanos() (mean, p50, p95, p99 float64) {
	d := r.st.Overall()
	return d.Mean() * sim.Nanos(1), sim.Nanos(d.Quantile(0.5)),
		sim.Nanos(d.Quantile(0.95)), sim.Nanos(d.Quantile(0.99))
}

// GetPutP99Nanos returns the per-class p99 request latency in nanoseconds.
// Gets wait on cross-host version propagation; puts wait on release handling,
// so the split shows which side a protocol's ordering policy taxes.
func (r *KVResult) GetPutP99Nanos() (get, put float64) {
	return sim.Nanos(r.st.Latency[obs.ReqGet].Quantile(0.99)),
		sim.Nanos(r.st.Latency[obs.ReqPut].Quantile(0.99))
}

// Raw returns the underlying run statistics for advanced inspection.
func (r *KVResult) Raw() *stats.Run { return r.run }

// simulateKV is the shared SimulateKV/SimulateKVObserved driver.
func simulateKV(w KVService, p Protocol, s System, rec *obs.Recorder, col *rt.Collector) (*KVResult, error) {
	nc, err := s.netConfig()
	if err != nil {
		return nil, err
	}
	b, err := builder(p)
	if err != nil {
		return nil, err
	}
	svc, err := w.Build(nc)
	if err != nil {
		return nil, err
	}
	sys := proto.NewSystem(s.Seed, nc, s.mode())
	if rec != nil {
		sys.Observe(rec)
	}
	if col != nil {
		sys.AttachRuntime(col)
	}
	run, err := proto.ExecSources(sys, b, svc.Cores(), svc.Sources())
	if err != nil {
		return nil, err
	}
	return &KVResult{run: run, st: svc.Stats(), offered: svc.OfferedPerCycle()}, nil
}

// ValidateKVFabric reports whether w fits the system s before anything runs:
// replication needs two hosts, and a host's servers must fit its cores.
// KVService's Validate checks the rest of w.
func ValidateKVFabric(w KVService, s System) error {
	nc, err := s.netConfig()
	if err != nil {
		return err
	}
	return w.ValidateFabric(nc)
}

// SimulateKV runs the KV service under a protocol on a system. Deterministic
// for a fixed System.Seed and KVService.Seed.
func SimulateKV(w KVService, p Protocol, s System) (*KVResult, error) {
	return simulateKV(w, p, s, nil, nil)
}

// SimulateKVObserved is SimulateKV with observability attached: request
// completions appear as req-done events in the stream and as latency
// histograms in the metrics registry (JSON export and Prometheus families).
func SimulateKVObserved(w KVService, p Protocol, s System, opt TraceOptions) (*KVResult, *Observation, error) {
	rec := opt.Recorder
	if rec == nil {
		rec = obs.New()
		if opt.MetricsOnly {
			rec = obs.NewMetricsOnly()
		}
		rec.SetSample(opt.Sample)
	}
	r, err := simulateKV(w, p, s, rec, opt.Runtime)
	if err != nil {
		return nil, nil, err
	}
	return r, &Observation{rec: rec}, nil
}
