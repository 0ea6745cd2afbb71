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
	"cord/internal/workload"
)

// The ladder's rungs are short separate calls, each adding one layer to
// the one below: the bare event kernel, then a NoC send, then (from the
// workloads themselves) a protocol over both, then the obs recorder, then
// the partitioned cluster at 1 against nproc workers. The gap between two
// rungs is that layer's cost.

// rungReps is how many times a rung repeats; it reports the median.
const rungReps = 3

// ladder runs every rung and records its metrics.
func ladder(lay *layers) error {
	var ns, allocs []float64
	for i := 0; i < rungReps; i++ {
		n, a := simChurn(2_000_000)
		ns, allocs = append(ns, n), append(allocs, a)
	}
	lay.set("sim.ns_per_event", median(ns))
	lay.set("sim.allocs_per_event", median(allocs))

	for _, kind := range sendKinds {
		ns, allocs = ns[:0], allocs[:0]
		for i := 0; i < rungReps; i++ {
			n, a, err := nocSend(kind, 500_000)
			if err != nil {
				return err
			}
			ns, allocs = append(ns, n), append(allocs, a)
		}
		lay.set("noc.send_ns."+kind, median(ns))
		lay.set("noc.send_allocs."+kind, median(allocs))
	}

	if err := obsOverhead(lay); err != nil {
		return err
	}
	return clusterSpeedup(lay)
}

// measureAllocs times fn and counts the heap allocations it makes.
func measureAllocs(fn func() error) (time.Duration, uint64, error) {
	runtime.GC()
	m0 := mallocs()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return d, mallocs() - m0, err
}

// simChurn is the bare-engine rung: a steady churn of 1024 in-flight events
// with pseudo-random delays, after a warm-up that grows the engine's
// buffers, so it measures the allocation-free steady state.
func simChurn(events int) (nsPerEvent, allocsPerEvent float64) {
	eng := sim.NewEngine(1)
	lcg := uint64(0x9E3779B97F4A7C15)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < events {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			eng.Schedule(1+sim.Time(lcg>>58), tick)
		}
	}
	for i := 0; i < 1024; i++ {
		eng.Schedule(sim.Time(i%17), tick)
	}
	// Run errors only past an event limit, which this engine does not set.
	_ = eng.RunUntil(4096)
	before := eng.Executed()
	d, a, _ := measureAllocs(eng.Run)
	n := float64(eng.Executed() - before)
	return float64(d.Nanoseconds()) / n, float64(a) / n
}

// nocSend is the NoC rung: sends with no-op handlers, in batches drained by
// the engine, so it covers the schedule and delivery round trip. intra is a
// mesh hop inside a host, inter a switch traversal with serialization (both
// on one engine, without jitter), partitioned the same cross-host send plus
// an intra-host one on the host-partitioned network with its window merge.
func nocSend(kind string, sends int) (nsPerSend, allocsPerSend float64, err error) {
	cfg := noc.CXLConfig()
	register := func(n *noc.Network) {
		for h := 0; h < cfg.Hosts; h++ {
			for t := 0; t < cfg.TilesPerHost; t++ {
				n.Register(noc.CoreID(h, t), func(noc.NodeID, any) {})
				n.Register(noc.DirID(h, t), func(noc.NodeID, any) {})
			}
		}
	}
	payload := any(&struct{ v uint64 }{42})
	src := noc.CoreID(0, 0)
	const batch = 1024
	var round func() error
	switch kind {
	case "intra", "inter":
		cfg.JitterCycles = 0
		eng := sim.NewEngine(1)
		net := noc.New(eng, cfg, &stats.Traffic{})
		register(net)
		dst := noc.DirID(0, 5)
		if kind == "inter" {
			dst = noc.DirID(1, 5)
		}
		round = func() error {
			for i := 0; i < batch; i++ {
				net.Send(src, dst, stats.ClassRelaxedData, 80, payload)
			}
			return eng.Run()
		}
	case "partitioned":
		cl := sim.NewCluster(1, cfg.Hosts, cfg.Lookahead())
		traffics := make([]*stats.Traffic, cfg.Hosts)
		for i := range traffics {
			traffics[i] = &stats.Traffic{}
		}
		net := noc.NewPartitioned(cl.Engines(), cfg, traffics)
		register(net)
		near, far := noc.DirID(0, 5), noc.DirID(1, 5)
		burst := func(uint64, any) {
			for i := 0; i < batch/2; i++ {
				net.Send(src, near, stats.ClassRelaxedData, 80, payload)
				net.Send(src, far, stats.ClassAck, 16, payload)
			}
		}
		round = func() error {
			var at sim.Time
			for _, e := range cl.Engines() {
				at = max(at, e.Now())
			}
			cl.Engine(0).ScheduleDeliverAt(at+1, burst, 0, nil)
			return cl.Run(1, net)
		}
	default:
		return 0, 0, fmt.Errorf("nocSend: unknown kind %q", kind)
	}
	if err := round(); err != nil { // warm-up
		return 0, 0, err
	}
	rounds := sends / batch
	d, a, err := measureAllocs(func() error {
		for i := 0; i < rounds; i++ {
			if err := round(); err != nil {
				return err
			}
		}
		return nil
	})
	n := float64(rounds * batch)
	return float64(d.Nanoseconds()) / n, float64(a) / n, err
}

// obsOverhead is the recorder rung: one apps job (PAD under CORD) with a nil
// recorder and with each recorder mode; the overhead is the extra host time
// per event.
func obsOverhead(lay *layers) error {
	app, err := workload.App("PAD")
	if err != nil {
		return err
	}
	nc := exp.NetConfig(exp.CXL)
	run := func(mode string) (float64, error) {
		var rec *obs.Recorder
		switch mode {
		case "metrics":
			rec = obs.NewMetricsOnly()
		case "sampled":
			rec = obs.New()
			rec.SetSample(100)
		case "full":
			rec = obs.New()
		}
		cores, progs, err := app.Programs(nc)
		if err != nil {
			return 0, err
		}
		sys := proto.NewSystem(defaultSeed, nc, proto.RC)
		if rec != nil {
			sys.Observe(rec)
		}
		d, _, err := measureAllocs(func() error {
			_, err := proto.Exec(sys, exp.Builder(exp.SchemeCORD), cores, progs)
			return err
		})
		return float64(d.Nanoseconds()) / float64(sys.Executed()), err
	}
	per := map[string][]float64{}
	for i := 0; i < rungReps; i++ {
		for _, mode := range append([]string{"nil"}, obsModes...) {
			v, err := run(mode)
			if err != nil {
				return fmt.Errorf("obs rung %s: %w", mode, err)
			}
			per[mode] = append(per[mode], v)
		}
	}
	base := median(per["nil"])
	for _, mode := range obsModes {
		lay.set("obs.overhead_ns_per_event."+mode, median(per[mode])-base)
	}
	return nil
}

// clusterSpeedup is the partitioned-cluster rung: the kv workload's CORD
// job at 1 worker against nproc workers (the same simulation either way).
func clusterSpeedup(lay *layers) error {
	kv := newKV(defaultSeed)
	var one, many []float64
	for i := 0; i < rungReps; i++ {
		for k, w := range []int{1, kv.workers} {
			_, _, d, _, err := kv.job(exp.SchemeCORD, w, nil, nil, 0, "speedup")
			if err != nil {
				return fmt.Errorf("cluster rung: %w", err)
			}
			if k == 0 {
				one = append(one, d.Seconds())
			} else {
				many = append(many, d.Seconds())
			}
		}
	}
	lay.set("sim.cluster.speedup", median(one)/median(many))
	return nil
}
