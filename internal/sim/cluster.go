package sim

import (
	"fmt"
	"time"
)

// Exchanger buffers cross-shard messages between conservative windows. The
// NoC implements it: sends whose destination lives on another shard are
// appended to a source-shard-owned outbox during a window, and Flush — called
// at the window barrier — files them into a per-cycle arrival calendar and
// moves every buffered message with timestamp <= horizon into its destination
// engine in a deterministic order. Horizons never decrease, and the
// conservative window bound puts every new message after the last horizon.
// Flush returns how many messages stay buffered (their timestamps exceed the
// horizon) and the earliest such timestamp, so the scheduler can anchor the
// next window on a message even when every engine has drained.
type Exchanger interface {
	Flush(horizon Time) (remaining int, earliest Time)
}

// WindowRecord is the per-window runtime telemetry handed to a WindowObserver
// at each barrier. All wall-clock fields are host nanoseconds, measured with
// the monotonic clock; they describe the simulator's own execution, never the
// simulated machine, and must therefore never feed back into simulation
// results (see DESIGN.md §12 on the telemetry quarantine).
//
// The per-shard slices are owned by the cluster and reused between windows:
// observers must copy out what they keep.
type WindowRecord struct {
	// Anchor and Deadline are the window's simulated-time bounds: the global
	// minimum pending timestamp and Anchor + W - 1.
	Anchor   Time
	Deadline Time
	// Active is the number of shards that had events due.
	Active int
	// WallNs is the wall time of the execute phase. FlushNs is the Exchanger
	// merge time charged to this window (the pre-window flush plus the
	// previous window's census probe).
	WallNs  int64
	FlushNs int64
	// Per-shard measurements, indexed by shard. A shard inactive this window
	// has ShardStartNs[i] == -1. For active shards, ShardStartNs is the lag
	// from window start until the shard began executing (the shards before
	// it in the window), ShardBusyNs the time inside RunUntil, and
	// ShardEvents the events the shard retired. The shard's wait for the
	// rest of the window is WallNs - ShardStartNs - ShardBusyNs by
	// construction, so the three components tile the window wall exactly.
	ShardStartNs []int64
	ShardBusyNs  []int64
	ShardEvents  []uint64
}

// WindowObserver receives one WindowRecord per executed window, invoked at
// the barrier after every shard has finished. Implemented by
// obs/runtime.Collector; the hook costs nothing when unset (no clock reads,
// no extra branches on the per-event path).
type WindowObserver interface {
	ObserveWindow(*WindowRecord)
}

// Cluster advances one Engine per shard (one shard per simulated host) in
// bounded conservative windows. The window width is the minimum cross-shard
// delivery latency W: an event executing at time t can only schedule work on
// another shard at t+W or later, so every shard may run [T, T+W-1] on its own
// once every already-buffered cross-shard message due in that range has been
// injected. No null messages, no rollback.
//
// Shards run their window one after another, in shard order. Each shard's
// event order depends only on event timestamps and its own PRNG, and the
// Exchanger injects cross-shard messages in a total (time, source-host,
// sequence) order at the barrier, so a run is deterministic. Runtime
// telemetry (SetWindowObserver) reads only the wall clock and engine event
// counters — it observes the schedule without becoming an input to it.
type Cluster struct {
	engines []*Engine
	window  Time

	active []int // scratch: shards with events due in the current window

	// Runtime telemetry (nil = disabled, zero overhead). rec's per-shard
	// slices are allocated once by SetWindowObserver and reused per window;
	// flushNs accumulates Exchanger merge time between barriers.
	wobs    WindowObserver
	rec     WindowRecord
	flushNs int64
}

// seedFor derives shard i's engine seed from the base seed (splitmix-style
// odd-constant stride, so shards get decorrelated PRNG streams). Shard 0
// keeps the base seed: a single-host cluster is bit-identical to a plain
// NewEngine(seed) simulation.
func seedFor(seed int64, shard int) int64 {
	return seed + int64(shard)*-0x61c8864680b583eb // golden-ratio increment
}

// NewCluster creates shards engines seeded from seed. window is the
// conservative lookahead W in cycles (clamped to >= 1).
func NewCluster(seed int64, shards int, window Time) *Cluster {
	if shards < 1 {
		panic("sim: cluster needs at least one shard")
	}
	if window < 1 {
		window = 1
	}
	c := &Cluster{
		engines: make([]*Engine, shards),
		window:  window,
		active:  make([]int, 0, shards),
	}
	for i := range c.engines {
		c.engines[i] = NewEngine(seedFor(seed, i))
	}
	return c
}

// Engines returns the per-shard engines (index = shard = host).
func (c *Cluster) Engines() []*Engine { return c.engines }

// Engine returns shard i's engine.
func (c *Cluster) Engine(i int) *Engine { return c.engines[i] }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.engines) }

// Window returns the conservative window width in cycles.
func (c *Cluster) Window() Time { return c.window }

// Executed sums the events fired across all shards.
func (c *Cluster) Executed() uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.executed
	}
	return n
}

// SetMaxEvents installs a per-shard event budget (a runaway guard; 0
// disables).
func (c *Cluster) SetMaxEvents(n uint64) {
	for _, e := range c.engines {
		e.MaxEvents = n
	}
}

// SetWindowObserver installs the per-window runtime telemetry hook (nil
// detaches). The record's per-shard slices are allocated here, once, so the
// window loop itself stays allocation-free with telemetry enabled. Call
// before Run; the observer is invoked at window barriers.
func (c *Cluster) SetWindowObserver(o WindowObserver) {
	c.wobs = o
	if o != nil && c.rec.ShardStartNs == nil {
		n := len(c.engines)
		c.rec.ShardStartNs = make([]int64, n)
		c.rec.ShardBusyNs = make([]int64, n)
		c.rec.ShardEvents = make([]uint64, n)
	}
}

// earliest returns the minimum next-event time across all shards.
func (c *Cluster) earliest() (Time, bool) {
	var min Time
	any := false
	for _, e := range c.engines {
		if at, ok := e.NextAt(); ok && (!any || at < min) {
			min, any = at, true
		}
	}
	return min, any
}

// flush runs one Exchanger barrier merge, charging its wall time to the next
// window's telemetry record when an observer is attached.
func (c *Cluster) flush(ex Exchanger, horizon Time) (int, Time) {
	if c.wobs == nil {
		return ex.Flush(horizon)
	}
	start := time.Now()
	remaining, earliest := ex.Flush(horizon)
	c.flushNs += time.Since(start).Nanoseconds()
	return remaining, earliest
}

// Run executes the cluster to completion: windows of width W anchored at the
// global minimum pending timestamp, with a Flush barrier before each window.
// It returns the first (lowest-shard) engine error, typically the MaxEvents
// guard. A nil Exchanger is valid for workloads with no cross-shard traffic.
//
// workers is ignored: shards always run one after another. The parameter
// stays only because perfbench's ladder passes it; it goes with perfbench's
// next benchmark revision.
func (c *Cluster) Run(workers int, ex Exchanger) error {
	buffered, bufEarliest := 0, Time(0)
	for {
		t, ok := c.earliest()
		if buffered > 0 && (!ok || bufEarliest < t) {
			t, ok = bufEarliest, true
		}
		if !ok {
			return nil // every queue and outbox drained
		}
		deadline := t + c.window - 1
		if ex != nil {
			buffered, bufEarliest = c.flush(ex, deadline)
		}
		if err := c.runWindow(t, deadline); err != nil {
			return err
		}
		if ex != nil {
			// Refresh the buffer census: the window may have produced new
			// cross-shard messages. The conservative bound puts them all
			// strictly after deadline, so this Flush injects nothing — it
			// only reports what remains, which the next iteration needs to
			// anchor a window even when every engine has drained.
			buffered, bufEarliest = c.flush(ex, deadline)
		}
	}
}

// runWindow executes, in shard order, every shard that has events due by
// deadline. Shards are independent within a window: the conservative W bound
// guarantees no cross-shard event at <= deadline can be created during it.
func (c *Cluster) runWindow(anchor, deadline Time) error {
	c.active = c.active[:0]
	for i, e := range c.engines {
		if at, ok := e.NextAt(); ok && at <= deadline {
			c.active = append(c.active, i)
		}
	}
	if len(c.active) == 0 {
		return nil
	}
	tel := c.wobs != nil
	var start time.Time
	if tel {
		start = time.Now()
		for i := range c.rec.ShardStartNs {
			c.rec.ShardStartNs[i] = -1
			c.rec.ShardBusyNs[i] = 0
			c.rec.ShardEvents[i] = 0
		}
	}
	for _, i := range c.active {
		var s0 time.Duration
		var e0 uint64
		if tel {
			s0 = time.Since(start)
			e0 = c.engines[i].executed
		}
		if err := c.engines[i].RunUntil(deadline); err != nil {
			return fmt.Errorf("sim: shard %d: %w", i, err)
		}
		if tel {
			d := time.Since(start)
			c.rec.ShardStartNs[i] = s0.Nanoseconds()
			c.rec.ShardBusyNs[i] = (d - s0).Nanoseconds()
			c.rec.ShardEvents[i] = c.engines[i].executed - e0
		}
	}
	if tel {
		c.rec.Anchor = anchor
		c.rec.Deadline = deadline
		c.rec.Active = len(c.active)
		c.rec.WallNs = time.Since(start).Nanoseconds()
		c.rec.FlushNs = c.flushNs
		c.flushNs = 0
		c.wobs.ObserveWindow(&c.rec)
	}
	return nil
}
