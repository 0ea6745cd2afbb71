package noc

import (
	"testing"

	"cord/internal/sim"
	"cord/internal/stats"
)

// benchNet builds a network with no-op handlers on the nodes the send
// benchmarks use. Batching sends and draining the engine keeps the event
// queue (and its backing array) small and steady-state, so the measurement
// covers the full schedule+deliver round trip.
func benchNet(cfg Config) (*sim.Engine, *Network) {
	eng := sim.NewEngine(1)
	var tr stats.Traffic
	net := New(eng, cfg, &tr)
	for h := 0; h < cfg.Hosts; h++ {
		for t := 0; t < cfg.TilesPerHost; t++ {
			net.Register(CoreID(h, t), func(src NodeID, payload any) {})
			net.Register(DirID(h, t), func(src NodeID, payload any) {})
		}
	}
	return eng, net
}

type benchMsg struct{ v uint64 }

func runSendBench(b *testing.B, cfg Config, src, dst NodeID) {
	eng, net := benchNet(cfg)
	payload := &benchMsg{v: 42}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; {
		k := batch
		if k > n {
			k = n
		}
		for i := 0; i < k; i++ {
			net.Send(src, dst, stats.ClassRelaxedData, 80, payload)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		n -= k
	}
}

// BenchmarkSendIntraHost: mesh-only hop, no serialization, no jitter.
func BenchmarkSendIntraHost(b *testing.B) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	runSendBench(b, cfg, CoreID(0, 0), DirID(0, 5))
}

// BenchmarkSendInterHost: switch traversal with egress-port serialization.
func BenchmarkSendInterHost(b *testing.B) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	runSendBench(b, cfg, CoreID(0, 0), DirID(1, 5))
}

// BenchmarkSendJittered: inter-host with delivery jitter, which adds one
// PRNG draw per message (the paper's adaptive-routing skew model).
func BenchmarkSendJittered(b *testing.B) {
	cfg := CXLConfig() // JitterCycles = 4
	runSendBench(b, cfg, CoreID(0, 0), DirID(1, 5))
}

// BenchmarkSendInterHostPartitioned: the same cross-host send on the
// host-partitioned network — filing into the arrival calendar at Send, the
// window-barrier Flush that injects it, and slot-based delivery on the
// destination shard. Mixed
// with an intra-host send per pair so the measurement also covers shard-local
// scheduling through the cached per-host engine.
func BenchmarkSendInterHostPartitioned(b *testing.B) {
	cfg := CXLConfig() // jitter on: one per-shard PRNG draw per inter-host hop
	cl, net := partitionedNet(cfg, 1)
	src, dst, far := CoreID(0, 0), DirID(0, 5), DirID(1, 5)
	payload := any(&benchMsg{v: 42})
	k := 0
	driver := func(_ uint64, _ any) {
		for i := 0; i < k; i++ {
			net.Send(src, dst, stats.ClassRelaxedData, 80, payload)
			net.Send(src, far, stats.ClassAck, 16, payload)
		}
	}
	round := func(kk int) {
		k = kk
		var at sim.Time
		for _, e := range cl.Engines() {
			if now := e.Now(); now > at {
				at = now
			}
		}
		cl.Engine(0).ScheduleDeliverAt(at+1, driver, 0, nil)
		if err := cl.Run(1, net); err != nil {
			b.Fatal(err)
		}
	}
	round(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= 1024 {
		round(512) // 512 pairs = 1024 sends per round
	}
}

// BenchmarkFlush measures one conservative window of partitioned cross-host
// traffic with queueing tails: the earliest-arrival read, the Flush that
// injects what is due, the shards' deliveries and their sends (see
// flushRig).
func BenchmarkFlush(b *testing.B) {
	r := newFlushRig()
	for i := 0; i < 4*32; i++ {
		r.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.step()
	}
}
