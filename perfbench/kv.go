package main

import (
	"fmt"
	"runtime"
	"time"

	"cord/internal/exp"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/sim"
	"cord/internal/stats"
	"cord/internal/workload/kvsvc"
)

// kvArrivalCycles is each session's mean open-loop inter-arrival time. The
// offered load it gives, about 5.1e8 requests per simulated second on 16
// hosts, lies between SO's knee (SO saturates near 1.6e8) and CORD's (CORD
// still keeps up at 1.0e9) on exp.KVCurve, so SO queues and CORD does not.
const kvArrivalCycles = 4000

// kvRunner is the kvsvc service on 16 CXL hosts x 2 servers under all four
// protocols, with the partitioned engine running nproc workers. The seed
// drives the service's per-core PRNGs and the system's jitter.
type kvRunner struct {
	seed    int64
	nc      noc.Config
	cfg     kvsvc.Config
	workers int
}

func newKV(seed int64) *kvRunner {
	nc := exp.NetConfig(exp.CXL)
	nc.Hosts = 16
	cfg := kvsvc.Default()
	cfg.ServersPerHost = 2
	cfg.Clients = 32
	cfg.Requests = 64
	cfg.GetPct = 50
	cfg.ZipfS = 1.2
	cfg.IndexUpdate = true
	cfg.OpenLoop = true
	cfg.ArrivalCycles = kvArrivalCycles
	cfg.Seed = seed
	return &kvRunner{seed: seed, nc: nc, cfg: cfg, workers: runtime.NumCPU()}
}

// miniKV is the probe job list: the same service with 4 requests per
// session.
func miniKV(seed int64) *kvRunner {
	r := newKV(seed)
	r.cfg.Requests = 4
	return r
}

func (r *kvRunner) exercised() []string {
	return []string{"kvsvc.", "proto.", "noc.msgs", "noc.flush_s", "noc.merged_msgs", "sim.cluster.",
		"trace.self_s.job", "trace.self_s.kvsvc.", "trace.self_s.proto.", "model.kv_sim"}
}

// requests is how many requests every job must complete.
func (r *kvRunner) requests() uint64 {
	return uint64(r.nc.Hosts * r.cfg.ServersPerHost * r.cfg.Clients * r.cfg.Requests)
}

func (r *kvRunner) goldenAnySeed() bool { return false }

func (r *kvRunner) setupOnly() time.Duration {
	c0 := cpuTime()
	for range exp.Schemes() {
		// A failing Build is reported by the passes; here only its time
		// counts.
		_, _ = r.cfg.Build(r.nc)
		proto.NewSystem(r.seed, r.nc, proto.RC)
	}
	return cpuTime() - c0
}

func (r *kvRunner) pass(tr *tracer, lay *layers) passResult {
	p := newPass()
	for _, s := range exp.Schemes() {
		id := "kv/" + string(s)
		runtime.GC() // as in apps: no job pays for the previous one's garbage
		p.attempted++
		job := tr.start("job", 0, id)
		run, st, d, setup, err := r.job(s, r.workers, tr, lay, job, id)
		tr.end(job)
		p.setup += setup
		p.runs[id] = d
		if err != nil {
			p.fail(id, "%v", err)
			continue
		}
		p.work += float64(st.Total())
		if st.Total() != r.requests() {
			p.fail(id, "completed %d requests, want %d", st.Total(), r.requests())
		}
		if s == exp.SchemeCORD {
			all := st.Overall()
			p.model["model.kv_sim_p99_ns"] = sim.Nanos(all.Quantile(0.99))
		}
		p.digests[id] = kvDigest(run, st)
	}
	return p
}

// kvDigest is a run's digest extended with the service's request counts and
// latency quantiles.
func kvDigest(run *stats.Run, st kvsvc.Stats) string {
	all := st.Overall()
	return runDigest(run, fmt.Sprintf("kv completed %v p50 %d p99 %d get-p99 %d put-p99 %d",
		st.Completed, all.Quantile(0.5), all.Quantile(0.99),
		st.Latency[obs.ReqGet].Quantile(0.99), st.Latency[obs.ReqPut].Quantile(0.99)))
}

// job builds and runs the service once under scheme s with the given
// partitioned-engine worker count. d and setup are CPU times.
func (r *kvRunner) job(s exp.Scheme, workers int, tr *tracer, lay *layers, parent int, id string) (
	run *stats.Run, st kvsvc.Stats, d, setup time.Duration, err error) {
	t0, c0 := time.Now(), cpuTime()
	sp := tr.start("kvsvc.build", parent, id)
	svc, err := r.cfg.Build(r.nc)
	lay.add("kvsvc.build_s", time.Since(t0).Seconds())
	tr.end(sp)
	if err != nil {
		return nil, st, 0, cpuTime() - c0, fmt.Errorf("build: %w", err)
	}
	sp = tr.start("proto.new_system", parent, id)
	t1 := time.Now()
	sys := proto.NewSystem(r.seed, r.nc, proto.RC)
	sys.Workers = workers
	lay.add("proto.new_system_s", time.Since(t1).Seconds())
	tr.end(sp)
	setup = cpuTime() - c0

	srcs := svc.Sources()
	var timed []*timedSource
	if lay != nil {
		for i, src := range srcs {
			ts := &timedSource{src: src}
			timed = append(timed, ts)
			srcs[i] = ts
		}
	}
	run, d, err = simulate(sys, s, tr, lay, parent, id, func(b proto.Builder) (*stats.Run, error) {
		return proto.ExecSources(sys, b, svc.Cores(), srcs)
	})
	for _, ts := range timed {
		lay.add("kvsvc.next_calls", float64(ts.calls))
		lay.add("kvsvc.next_total_ns", float64(ts.ns))
	}
	if err != nil {
		return nil, st, d, setup, fmt.Errorf("exec: %w", err)
	}
	return run, svc.Stats(), d, setup, nil
}

// timedSource times every Next of a service core's op source. Each core
// pulls only from its own source on its host's shard, so the counters need
// no locking even when shards run in parallel.
type timedSource struct {
	src   proto.OpSource
	calls uint64
	ns    int64
}

func (t *timedSource) Next(now sim.Time) (proto.Op, bool) {
	t0 := time.Now()
	op, ok := t.src.Next(now)
	t.ns += int64(time.Since(t0))
	t.calls++
	return op, ok
}

// AttachCore forwards the core's identity and recorder to the wrapped
// source, as proto does for an unwrapped one.
func (t *timedSource) AttachCore(core noc.NodeID, eng *sim.Engine, rec *obs.Recorder) {
	if a, ok := t.src.(proto.CoreAttachable); ok {
		a.AttachCore(core, eng, rec)
	}
}
