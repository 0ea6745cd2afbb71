package sim

import (
	"strings"
	"testing"
)

// chanExchanger is a minimal Exchanger for cluster tests: messages are
// (time, destination shard, fn) triples buffered by the test and injected at
// Flush. The tests' outcomes do not depend on injection order.
type chanExchanger struct {
	c    *Cluster
	msgs []xchMsg
}

type xchMsg struct {
	at  Time
	dst int
	fn  func()
}

func (x *chanExchanger) post(at Time, dst int, fn func()) {
	x.msgs = append(x.msgs, xchMsg{at: at, dst: dst, fn: fn})
}

func (x *chanExchanger) Flush(horizon Time) (int, Time) {
	keep := x.msgs[:0]
	for _, m := range x.msgs {
		if m.at <= horizon {
			x.c.Engine(m.dst).ScheduleAt(m.at, m.fn)
		} else {
			keep = append(keep, m)
		}
	}
	x.msgs = keep
	var earliest Time
	for i, m := range keep {
		if i == 0 || m.at < earliest {
			earliest = m.at
		}
	}
	return len(keep), earliest
}

func TestClusterShardZeroMatchesPlainEngine(t *testing.T) {
	// A 1-shard cluster must be bit-identical to NewEngine(seed): same seed,
	// same PRNG stream, same execution.
	c := NewCluster(42, 1, 100)
	plain := NewEngine(42)
	for i := 0; i < 16; i++ {
		a, b := c.Engine(0).Rand().Int63(), plain.Rand().Int63()
		if a != b {
			t.Fatalf("draw %d: shard 0 PRNG %d != plain engine %d", i, a, b)
		}
	}
}

func TestClusterWindowedCompletion(t *testing.T) {
	// A chain of cross-shard pings must complete even though each hop lands
	// in a later window.
	const shards = 4
	const window = Time(50)
	c := NewCluster(7, shards, window)
	ex := &chanExchanger{c: c}
	var hops int
	var send func(from int)
	send = func(from int) {
		if hops >= 40 {
			return
		}
		hops++
		dst := (from + 1) % shards
		at := c.Engine(from).Now() + window // minimum legal cross-shard delay
		ex.post(at, dst, func() { send(dst) })
	}
	c.Engine(0).Schedule(1, func() { send(0) })
	if err := c.Run(1, ex); err != nil {
		t.Fatal(err)
	}
	if hops != 40 {
		t.Fatalf("%d/40 hops delivered", hops)
	}
}

func TestClusterDrainsLateBufferedMessages(t *testing.T) {
	// A message buffered during the final window — when every engine queue
	// is empty afterwards — must still be delivered: the scheduler re-probes
	// the exchanger after each window.
	c := NewCluster(1, 2, Time(10))
	ex := &chanExchanger{c: c}
	delivered := false
	c.Engine(0).Schedule(5, func() {
		ex.post(c.Engine(0).Now()+10, 1, func() { delivered = true })
	})
	if err := c.Run(1, ex); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("message buffered in the last window was never injected")
	}
}

func TestClusterExecutedSumsShards(t *testing.T) {
	c := NewCluster(3, 3, Time(10))
	for i := 0; i < 3; i++ {
		for j := 0; j < i+1; j++ {
			c.Engine(i).Schedule(Time(j+1), func() {})
		}
	}
	if err := c.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Executed(); got != 6 {
		t.Fatalf("Executed() = %d, want 6", got)
	}
}

func TestClusterMaxEventsPropagates(t *testing.T) {
	c := NewCluster(9, 2, Time(10))
	c.SetMaxEvents(4)
	var tick func()
	n := 0
	tick = func() {
		n++
		c.Engine(1).Schedule(1, tick)
	}
	c.Engine(1).Schedule(1, tick)
	err := c.Run(1, nil)
	if err == nil {
		t.Fatal("runaway shard did not trip the MaxEvents guard")
	}
	if !strings.HasPrefix(err.Error(), "sim: shard 1: ") {
		t.Fatalf("error %q does not name the shard", err)
	}
}

func TestClusterWorkerCountInvariance(t *testing.T) {
	// Run ignores its worker count (it stays only for perfbench's ladder):
	// identical topology, seed, and cross-shard schedule must execute the
	// same number of events and leave the same shard clocks for any value.
	type outcome struct {
		executed uint64
		sum      uint64
	}
	run := func(workers int) outcome {
		const shards = 8
		c := NewCluster(11, shards, Time(20))
		ex := &chanExchanger{c: c}
		var sum uint64
		for s := 0; s < shards; s++ {
			s := s
			var tick func()
			rounds := 0
			tick = func() {
				rounds++
				sum += uint64(c.Engine(s).Now()) * uint64(s+1)
				if rounds < 12 {
					c.Engine(s).Schedule(Time(3+s%5), tick)
					if rounds%3 == 0 {
						dst := (s + 3) % shards
						at := c.Engine(s).Now() + 20
						ex.post(at, dst, func() { sum += uint64(at) })
					}
				}
			}
			c.Engine(s).Schedule(Time(1+s), tick)
		}
		if err := c.Run(workers, ex); err != nil {
			t.Fatal(err)
		}
		return outcome{executed: c.Executed(), sum: sum}
	}
	want := run(1)
	for _, w := range []int{0, 2, 4, 8} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d: outcome %+v != workers=1 %+v", w, got, want)
		}
	}
}

// windowCapture records every WindowRecord it observes (copying the
// cluster-owned slices, as the contract requires).
type windowCapture struct {
	recs []WindowRecord
}

func (w *windowCapture) ObserveWindow(r *WindowRecord) {
	cp := *r
	cp.ShardStartNs = append([]int64(nil), r.ShardStartNs...)
	cp.ShardBusyNs = append([]int64(nil), r.ShardBusyNs...)
	cp.ShardEvents = append([]uint64(nil), r.ShardEvents...)
	w.recs = append(w.recs, cp)
}

func TestClusterWindowObserver(t *testing.T) {
	const shards = 4
	c := NewCluster(5, shards, Time(25))
	cap := &windowCapture{}
	c.SetWindowObserver(cap)
	ex := &chanExchanger{c: c}
	for s := 0; s < shards; s++ {
		s := s
		rounds := 0
		var tick func()
		tick = func() {
			rounds++
			if rounds < 10 {
				c.Engine(s).Schedule(Time(2+s), tick)
				if rounds%4 == 0 {
					dst := (s + 1) % shards
					ex.post(c.Engine(s).Now()+25, dst, func() {})
				}
			}
		}
		c.Engine(s).Schedule(Time(1+s), tick)
	}
	if err := c.Run(1, ex); err != nil {
		t.Fatal(err)
	}
	if len(cap.recs) == 0 {
		t.Fatal("no windows observed")
	}
	var events uint64
	for wi, r := range cap.recs {
		if r.Deadline != r.Anchor+c.window-1 {
			t.Fatalf("window %d: bounds [%d,%d] not one window wide", wi, r.Anchor, r.Deadline)
		}
		if r.Active < 1 || r.Active > shards {
			t.Fatalf("window %d: active=%d", wi, r.Active)
		}
		active := 0
		var lastEnd int64
		for s := 0; s < shards; s++ {
			if r.ShardStartNs[s] < 0 {
				if r.ShardBusyNs[s] != 0 || r.ShardEvents[s] != 0 {
					t.Fatalf("inactive shard %d has busy/events", s)
				}
				continue
			}
			active++
			events += r.ShardEvents[s]
			// Shards run in order: each starts after the previous one ended,
			// and start lag + busy fits inside the window wall, so the
			// implied barrier wait is non-negative.
			if r.ShardStartNs[s] < lastEnd {
				t.Fatalf("window %d shard %d: started at %dns, before the previous shard ended at %dns",
					wi, s, r.ShardStartNs[s], lastEnd)
			}
			lastEnd = r.ShardStartNs[s] + r.ShardBusyNs[s]
			if lastEnd > r.WallNs {
				t.Fatalf("window %d shard %d: start+busy %dns > wall %dns", wi, s, lastEnd, r.WallNs)
			}
		}
		if active != r.Active {
			t.Fatalf("window %d: %d shards reported, Active=%d", wi, active, r.Active)
		}
	}
	if events != c.Executed() {
		t.Fatalf("observed %d events, cluster executed %d", events, c.Executed())
	}
}

// BenchmarkClusterWindowSerial measures the sharded scheduler's overhead:
// the same churn as BenchmarkEngineChurn, split over 8 shards with no
// cross-shard traffic, so the delta to the plain engine is pure window
// bookkeeping. (The name predates the removal of the parallel variant and
// stays so benchstat can compare across that change.)
func BenchmarkClusterWindowSerial(b *testing.B) {
	const shards = 8
	c := NewCluster(1, shards, Time(300))
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func() Time {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return 1 + Time(lcg>>58)
	}
	stop := false
	for s := 0; s < shards; s++ {
		eng := c.Engine(s)
		var tick func()
		tick = func() {
			if !stop {
				eng.Schedule(next(), tick)
			}
		}
		for i := 0; i < 128; i++ {
			eng.Schedule(next(), tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	target := c.Executed() // 0
	for i := 0; i < b.N; i++ {
		target += 1024
		for c.Executed() < target {
			t, ok := c.earliest()
			if !ok {
				b.Fatal("cluster drained")
			}
			if err := c.runWindow(t, t+c.window-1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	stop = true
	_ = c.Run(1, nil)
}
