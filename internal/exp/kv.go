package exp

import (
	"fmt"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/sim"
	"cord/internal/stats"
	"cord/internal/workload/kvsvc"
)

// KVPoint is one (scheme, load multiplier) measurement of the KV-service
// sweep: achieved throughput against offered load, with the request-latency
// tail — the service-level counterpart of the trace-completion figures.
type KVPoint struct {
	Scheme Scheme
	// LoadMult scales the configured offered load: think (closed loop) or
	// inter-arrival (open loop) mean cycles are divided by it.
	LoadMult float64
	// OfferedRPS is the configured offered load in requests per simulated
	// second (the closed-loop value is the zero-service-time ceiling).
	OfferedRPS float64
	// AchievedRPS is completed requests over the run's simulated duration.
	AchievedRPS float64
	// Completed counts finished requests (all of them — the run ends when
	// every session drained).
	Completed uint64
	// Request-latency quantiles across both classes, in nanoseconds.
	MeanNs, P50Ns, P95Ns, P99Ns float64
	// Per-class p99, in nanoseconds (gets wait on version propagation; puts
	// wait on release handling).
	GetP99Ns, PutP99Ns float64
}

// RunKV executes one KV-service configuration under one scheme and returns
// the run statistics and the merged service-level stats.
func RunKV(cfg kvsvc.Config, s Scheme, nc noc.Config, seed int64) (*stats.Run, kvsvc.Stats, error) {
	svc, err := cfg.Build(nc)
	if err != nil {
		return nil, kvsvc.Stats{}, err
	}
	sys := proto.NewSystem(seed, nc, proto.RC)
	if rec := liveRecorder(); rec != nil {
		sys.Observe(rec)
	}
	run, err := proto.ExecSources(sys, Builder(s), svc.Cores(), svc.Sources())
	if err != nil {
		return nil, kvsvc.Stats{}, fmt.Errorf("exp: kvsvc under %s: %w", s, err)
	}
	return run, svc.Stats(), nil
}

// kvPoint condenses one run into a curve point.
func kvPoint(s Scheme, mult float64, offeredPerCycle float64, run *stats.Run, st kvsvc.Stats) KVPoint {
	perSec := 1e9 / sim.Nanos(1) // cycles per simulated second
	d := st.Overall()
	pt := KVPoint{
		Scheme:     s,
		LoadMult:   mult,
		OfferedRPS: offeredPerCycle * perSec,
		Completed:  st.Total(),
		MeanNs:     d.Mean() * sim.Nanos(1),
		P50Ns:      sim.Nanos(d.Quantile(0.5)),
		P95Ns:      sim.Nanos(d.Quantile(0.95)),
		P99Ns:      sim.Nanos(d.Quantile(0.99)),
		GetP99Ns:   sim.Nanos(st.Latency[obs.ReqGet].Quantile(0.99)),
		PutP99Ns:   sim.Nanos(st.Latency[obs.ReqPut].Quantile(0.99)),
	}
	if ns := run.ExecNanos(); ns > 0 {
		pt.AchievedRPS = float64(st.Total()) / (ns * 1e-9)
	}
	return pt
}

// KVCurve sweeps the KV service over load multipliers under each scheme,
// producing the throughput-vs-offered-load curve with tail latency that the
// cordsim/cordbench KV modes render. Points are ordered scheme-major,
// load-minor; runs execute on the sweep worker pool (per-run determinism is
// unaffected).
func KVCurve(base kvsvc.Config, nc noc.Config, loads []float64, schemes []Scheme, seed int64) ([]KVPoint, error) {
	if len(loads) == 0 {
		loads = []float64{0.5, 1, 2, 4}
	}
	if len(schemes) == 0 {
		schemes = Schemes()
	}
	pts := make([]KVPoint, len(schemes)*len(loads))
	progressStart("kvsvc", len(pts))
	err := forEach(len(pts), func(i int) error {
		s := schemes[i/len(loads)]
		mult := loads[i%len(loads)]
		if mult <= 0 {
			return fmt.Errorf("exp: load multiplier %v must be positive", mult)
		}
		cfg := base
		if cfg.OpenLoop {
			cfg.ArrivalCycles = base.ArrivalCycles / mult
		} else {
			cfg.ThinkCycles = base.ThinkCycles / mult
		}
		svc, err := cfg.Build(nc) // for OfferedPerCycle of the scaled config
		if err != nil {
			return err
		}
		run, st, err := RunKV(cfg, s, nc, seed)
		if err != nil {
			return err
		}
		pts[i] = kvPoint(s, mult, svc.OfferedPerCycle(), run, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}
