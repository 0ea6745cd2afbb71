package noc

import (
	"testing"

	"cord/internal/obs"
	"cord/internal/sim"
	"cord/internal/stats"
)

// TestSerializationExactBoundaries pins the integer-ceil serialization
// against byte sizes that land exactly on cycle boundaries — the cases the
// old float "+0.999999" formulation was one ULP away from getting wrong.
func TestSerializationExactBoundaries(t *testing.T) {
	cases := []struct {
		bytesPerCycle float64
		bytes         int
		want          sim.Time
	}{
		// Table 1 bandwidth: 32 B/cycle.
		{32, 1, 1},
		{32, 31, 1},
		{32, 32, 1}, // exactly one cycle
		{32, 33, 2}, // one byte over
		{32, 64, 2}, // exactly two cycles
		{32, 65, 3},
		{32, 96, 3},
		{32, 1024, 32}, // exactly 32 cycles
		{32, 1025, 33},
		// Narrow integral link.
		{1, 7, 7},
		{3, 9, 3},
		{3, 10, 4},
		// Fractional bandwidth falls back to float ceil.
		{2.5, 5, 2}, // exactly two cycles
		{2.5, 4, 2}, // 1.6 cycles
		{2.5, 6, 3}, // 2.4 cycles
		{0.5, 3, 6}, // exactly six cycles
	}
	for _, tc := range cases {
		cfg := CXLConfig()
		cfg.LinkBytesPerCycle = tc.bytesPerCycle
		eng := sim.NewEngine(1)
		var tr stats.Traffic
		n := New(eng, cfg, &tr)
		if got := n.serialization(tc.bytes); got != tc.want {
			t.Errorf("serialization(%d B at %g B/cyc) = %d cycles, want %d",
				tc.bytes, tc.bytesPerCycle, got, tc.want)
		}
	}
}

// TestSerializationDelaysDelivery checks the serialization cycles actually
// appear in the end-to-end delivery time of an inter-host message.
func TestSerializationDelaysDelivery(t *testing.T) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	eng := sim.NewEngine(1)
	var tr stats.Traffic
	n := New(eng, cfg, &tr)
	src, dst := CoreID(0, 0), DirID(1, 0)
	var arrived sim.Time
	n.Register(dst, func(_ NodeID, _ any) { arrived = eng.Now() })
	const bytes = 64 // exactly 2 cycles at 32 B/cycle
	n.Send(src, dst, stats.ClassRelaxedData, bytes, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := n.Latency(src, dst) + 2
	if arrived != want {
		t.Fatalf("inter-host 64 B message arrived at %d, want latency %d + 2 serialization cycles",
			arrived, want-2)
	}
}

// TestPackIDRoundTrip covers the packed source word the monomorphic delivery
// events carry.
func TestPackIDRoundTrip(t *testing.T) {
	ids := []NodeID{
		CoreID(0, 0), DirID(0, 0), CoreID(7, 7), DirID(7, 7),
		CoreID(1000, 123456), DirID(0, 1<<20),
	}
	for _, id := range ids {
		if got := unpackID(packID(id)); got != id {
			t.Errorf("unpack(pack(%v)) = %v", id, got)
		}
	}
}

// TestSendZeroAllocUntraced is the allocation regression guard for the
// message hot path: with no recorder (and with a metrics-only recorder),
// steady-state Send + delivery must not allocate.
func TestSendZeroAllocUntraced(t *testing.T) {
	for _, rec := range []*obs.Recorder{nil, obs.NewMetricsOnly()} {
		cfg := CXLConfig() // jitter on: the PRNG draw must not allocate either
		eng := sim.NewEngine(1)
		var tr stats.Traffic
		n := New(eng, cfg, &tr)
		n.SetObservers(everyHost(rec, cfg.Hosts))
		src, dst, far := CoreID(0, 0), DirID(0, 5), DirID(1, 5)
		sink := func(_ NodeID, _ any) {}
		n.Register(dst, sink)
		n.Register(far, sink)
		payload := any(&struct{ v int }{v: 1})
		warm := func(k int) {
			for i := 0; i < k; i++ {
				n.Send(src, dst, stats.ClassRelaxedData, 80, payload)
				n.Send(src, far, stats.ClassAck, 16, payload)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		warm(2048)
		avg := testing.AllocsPerRun(100, func() { warm(32) })
		if avg != 0 {
			t.Fatalf("untraced Send (recorder=%v) allocates %.1f per 64-message batch, want 0",
				rec.Enabled(), avg)
		}
	}
}

// everyHost gives all hosts one recorder.
func everyHost(rec *obs.Recorder, hosts int) []*obs.Recorder {
	recs := make([]*obs.Recorder, hosts)
	for i := range recs {
		recs[i] = rec
	}
	return recs
}

// TestSendTracedAllocBounded bounds the sampled-path cost: one arrival
// closure per traced message, plus amortized event-buffer growth. The exact
// constant is implementation detail; the guard is that tracing stays O(1)
// allocations per message rather than regressing to per-hop closures.
func TestSendTracedAllocBounded(t *testing.T) {
	cfg := CXLConfig()
	eng := sim.NewEngine(1)
	var tr stats.Traffic
	n := New(eng, cfg, &tr)
	rec := obs.New()
	n.SetObservers(everyHost(rec, cfg.Hosts))
	src, dst := CoreID(0, 0), DirID(1, 5)
	n.Register(dst, func(_ NodeID, _ any) {})
	payload := any(&struct{ v int }{v: 1})
	send := func(k int) {
		for i := 0; i < k; i++ {
			n.Send(src, dst, stats.ClassRelaxedData, 80, payload)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send(1024)
	avg := testing.AllocsPerRun(50, func() { send(32) })
	if perMsg := avg / 32; perMsg > 4 {
		t.Fatalf("traced Send allocates %.2f per message, want <= 4", perMsg)
	}
}

// flushRig drives the partitioned network's window barrier by hand, the way
// sim.Cluster does: Flush to the window's deadline, run every shard to it,
// census Flush. Every host sends a few small cross-host messages per window,
// and once every 32 windows each host sends a burst that its 1 B/cycle
// egress port serializes over more than 4096 cycles, so the buffer always
// holds a queueing tail far past the horizon. The average load stays below
// the link rate, so the rig reaches a steady state.
type flushRig struct {
	n       *Network
	engines []*sim.Engine
	w       sim.Time
	horizon sim.Time
	window  int
	driver  sim.DeliverFunc
}

func newFlushRig() *flushRig {
	cfg := CXLConfig()
	cfg.LinkBytesPerCycle = 1
	cl, n := partitionedNet(cfg, 1)
	r := &flushRig{n: n, engines: cl.Engines(), w: cfg.Lookahead()}
	payload := any(&benchMsg{v: 42})
	r.driver = func(src uint64, _ any) {
		h := int(src)
		k, size := 4, 16
		if r.window%32 == 4*h {
			k, size = 80, 64
		}
		for i := 0; i < k; i++ {
			dst := (h + 1 + i%(cfg.Hosts-1)) % cfg.Hosts
			n.Send(CoreID(h, i%cfg.TilesPerHost), DirID(dst, i%cfg.TilesPerHost),
				stats.ClassRelaxedData, size, payload)
		}
	}
	return r
}

// step runs one window: every host's sends fire on its first cycle.
func (r *flushRig) step() {
	next := r.horizon + r.w
	for h, e := range r.engines {
		e.ScheduleDeliverAt(r.horizon+1, r.driver, uint64(h), nil)
	}
	r.n.Flush(next)
	for _, e := range r.engines {
		if err := e.RunUntil(next); err != nil {
			panic(err)
		}
	}
	r.n.Flush(next)
	r.horizon = next
	r.window++
}

// TestFlushZeroAllocSteadyState holds the window barrier to zero
// allocations once its buffers have grown: outbox appends, filing into the
// arrival calendar (overflow heap included), in-order injection, and the
// census Flush.
func TestFlushZeroAllocSteadyState(t *testing.T) {
	r := newFlushRig()
	overflowed := false
	for i := 0; i < 4*32; i++ {
		r.step()
		overflowed = overflowed || len(r.n.cal.over) > 0
	}
	if !overflowed {
		t.Fatal("no arrival reached the calendar's overflow heap")
	}
	if avg := testing.AllocsPerRun(200, r.step); avg != 0 {
		t.Fatalf("partitioned send + Flush allocates %.2f per window, want 0", avg)
	}
}
