package noc

import (
	"testing"

	"cord/internal/obs"
	"cord/internal/sim"
	"cord/internal/stats"
)

// partitionedNet builds a cluster-backed network with no-op handlers
// everywhere.
func partitionedNet(cfg Config, seed int64) (*sim.Cluster, *Network) {
	cl := sim.NewCluster(seed, cfg.Hosts, cfg.Lookahead())
	traffics := make([]*stats.Traffic, cfg.Hosts)
	for i := range traffics {
		traffics[i] = &stats.Traffic{}
	}
	n := NewPartitioned(cl.Engines(), cfg, traffics)
	for h := 0; h < cfg.Hosts; h++ {
		for t := 0; t < cfg.TilesPerHost; t++ {
			n.Register(CoreID(h, t), func(NodeID, any) {})
			n.Register(DirID(h, t), func(NodeID, any) {})
		}
	}
	return cl, n
}

// TestPartitionedSendZeroAllocUntraced extends the hot-path allocation guard
// to one engine per host: steady-state intra-host sends, cross-host filing
// into the arrival calendar, the window-barrier Flush, and injection must all be
// allocation-free once buffers have grown. The driver event is scheduled
// through the slot-based ScheduleDeliver so the test harness itself adds no
// allocations.
func TestPartitionedSendZeroAllocUntraced(t *testing.T) {
	for _, recs := range [][]*obs.Recorder{nil, metricsOnlyRecs(CXLConfig().Hosts)} {
		cfg := CXLConfig() // jitter on: the per-shard PRNG draw must not allocate
		cl, n := partitionedNet(cfg, 1)
		n.SetObservers(recs)
		src, dst, far := CoreID(0, 0), DirID(0, 5), DirID(1, 5)
		payload := any(&struct{ v int }{v: 1})
		k := 0
		driver := func(_ uint64, _ any) {
			for i := 0; i < k; i++ {
				n.Send(src, dst, stats.ClassRelaxedData, 80, payload)
				n.Send(src, far, stats.ClassAck, 16, payload)
			}
		}
		round := func(kk int) {
			k = kk
			// Shard clocks desynchronize once a run drains; anchor the next
			// round past every clock so cross-host arrivals stay in each
			// destination shard's future.
			var at sim.Time
			for _, e := range cl.Engines() {
				if now := e.Now(); now > at {
					at = now
				}
			}
			cl.Engine(0).ScheduleDeliverAt(at+1, driver, 0, nil)
			if err := cl.Run(1, n); err != nil {
				t.Fatal(err)
			}
		}
		round(2048)
		avg := testing.AllocsPerRun(100, func() { round(32) })
		if avg != 0 {
			t.Fatalf("partitioned untraced Send (recorders=%v) allocates %.1f per 64-message round, want 0",
				recs != nil, avg)
		}
	}
}

func metricsOnlyRecs(n int) []*obs.Recorder {
	return obs.NewMetricsOnly().Split(n)
}

// TestPartitionedMatchesSingleEngineTiming pins the partitioned cross-host
// arrival time to the one a network with every host on one engine (New)
// computes: the window barrier may delay *injection*, but delivery must land
// on exactly that cycle (latency + serialization; jitter off for exactness).
func TestPartitionedMatchesSingleEngineTiming(t *testing.T) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	src, dst := CoreID(0, 0), DirID(1, 3)

	single := sim.NewEngine(1)
	var tr stats.Traffic
	ref := New(single, cfg, &tr)
	var want sim.Time
	ref.Register(dst, func(_ NodeID, _ any) { want = single.Now() })
	single.Schedule(7, func() { ref.Send(src, dst, stats.ClassRelaxedData, 64, "m") })
	if err := single.Run(); err != nil {
		t.Fatal(err)
	}

	cl := sim.NewCluster(1, cfg.Hosts, cfg.Lookahead())
	traffics := make([]*stats.Traffic, cfg.Hosts)
	for i := range traffics {
		traffics[i] = &stats.Traffic{}
	}
	n := NewPartitioned(cl.Engines(), cfg, traffics)
	var got sim.Time
	n.Register(dst, func(_ NodeID, _ any) { got = cl.Engine(1).Now() })
	cl.Engine(0).Schedule(7, func() { n.Send(src, dst, stats.ClassRelaxedData, 64, "m") })
	if err := cl.Run(1, n); err != nil {
		t.Fatal(err)
	}

	if got == 0 || got != want {
		t.Fatalf("partitioned delivery at cycle %d, single-engine at %d", got, want)
	}
	if it := traffics[0].Inter(stats.ClassRelaxedData); it != tr.Inter(stats.ClassRelaxedData) {
		t.Fatalf("partitioned inter-host bytes %d != single-engine %d", it, tr.Inter(stats.ClassRelaxedData))
	}
}
