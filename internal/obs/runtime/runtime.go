// Package runtime collects telemetry about the simulator's own execution —
// per-shard busy/idle/barrier wall time, window bookkeeping, and cross-shard
// merge volume for the host-partitioned conservative-window cluster. It is
// the counterpart to package obs, which observes the simulated machine: obs
// answers "why is the release slow", runtime answers "where does the
// simulator's time go besides executing events".
//
// The Collector implements sim.WindowObserver and noc.FlushObserver. Both
// hooks run at window barriers, so the hot path inside a window costs nothing
// beyond the cluster's own clock reads, and the per-event path costs nothing
// at all: the window loop's 0 allocs/op guarantee holds with telemetry
// enabled (guarded by AllocsPerRun tests).
//
// Everything here measures host wall-clock time and is therefore
// non-deterministic by nature. It is quarantined from the deterministic
// artifacts (JSONL trace, metrics, stats): runtime data only leaves through
// its own Report snapshot, the /runtime live endpoint, cord_sim_* Prometheus
// families, and an explicitly requested Chrome-trace track group. See
// DESIGN.md §12.
package runtime

import (
	"sync"

	"cord/internal/sim"
)

// DefaultMaxSeries bounds the per-window series kept for timelines and
// per-window efficiency. When the series fills, adjacent buckets are merged
// pairwise in place and the bucket stride doubles, so memory stays bounded
// and steady-state windows allocate nothing: a long run just gets coarser
// timeline slices.
const DefaultMaxSeries = 512

// ShardSlice is one shard's wall-time decomposition within a series bucket.
// BusyNs is time inside RunUntil, IdleNs the lag before the shard started
// (the shards before it in the window), BarrierNs the wait from the shard
// finishing until the window barrier. The three tile the shard's share of
// the bucket's wall time exactly — they are derived from the same monotonic
// clock reads.
type ShardSlice struct {
	BusyNs    uint64 `json:"busy_ns"`
	IdleNs    uint64 `json:"idle_ns"`
	BarrierNs uint64 `json:"barrier_ns"`
	Events    uint64 `json:"events"`
}

func (s *ShardSlice) add(o ShardSlice) {
	s.BusyNs += o.BusyNs
	s.IdleNs += o.IdleNs
	s.BarrierNs += o.BarrierNs
	s.Events += o.Events
}

// Bucket aggregates one or more consecutive windows. Start/End are the
// simulated-time bounds (cycles) of the covered windows; everything else is
// host wall time or counts summed over them. WallNs is the windows' execute
// phases, FlushNs their barrier merges, and BusyNs, IdleNs and BarrierNs the
// sums of the active shards' ShardSlice parts (see Analyze).
type Bucket struct {
	Start   uint64 `json:"start_cycle"`
	End     uint64 `json:"end_cycle"`
	Windows uint64 `json:"windows"`

	WallNs  uint64 `json:"wall_ns"`
	FlushNs uint64 `json:"flush_ns"`

	BusyNs    uint64 `json:"busy_ns"`
	IdleNs    uint64 `json:"idle_ns"`
	BarrierNs uint64 `json:"barrier_ns"`

	Events    uint64 `json:"events"`
	ActiveSum uint64 `json:"active_sum"` // sum of per-window active-shard counts

	Injected    uint64 `json:"outbox_injected"`
	MergedBytes uint64 `json:"outbox_merged_bytes"`
	RetainedMax uint64 `json:"outbox_retained_max"`
}

func (b *Bucket) merge(o *Bucket) {
	if o.Windows == 0 {
		return
	}
	if b.Windows == 0 {
		b.Start = o.Start
	}
	b.End = o.End
	b.Windows += o.Windows
	b.WallNs += o.WallNs
	b.FlushNs += o.FlushNs
	b.BusyNs += o.BusyNs
	b.IdleNs += o.IdleNs
	b.BarrierNs += o.BarrierNs
	b.Events += o.Events
	b.ActiveSum += o.ActiveSum
	b.Injected += o.Injected
	b.MergedBytes += o.MergedBytes
	if o.RetainedMax > b.RetainedMax {
		b.RetainedMax = o.RetainedMax
	}
}

// ShardTotals is one shard's cumulative runtime accounting over the whole
// run. Busy+Idle+Barrier tiles WallNs (the summed wall time of the windows
// the shard was active in) exactly, up to clock granularity.
type ShardTotals struct {
	Shard     int    `json:"shard"`
	Windows   uint64 `json:"windows"`
	Events    uint64 `json:"events"`
	BusyNs    uint64 `json:"busy_ns"`
	IdleNs    uint64 `json:"idle_ns"`
	BarrierNs uint64 `json:"barrier_ns"`
	WallNs    uint64 `json:"wall_ns"`
}

// Collector accumulates runtime telemetry for one run. Create
// with NewCollector, attach via proto.System.AttachRuntime (which wires it as
// the cluster's WindowObserver and the network's FlushObserver), snapshot at
// any time with Snapshot — the mutex makes live scraping safe while windows
// are being recorded.
type Collector struct {
	mu        sync.Mutex
	shards    int
	maxSeries int

	totals Bucket
	sh     []ShardTotals

	// Bounded series: meta[i]'s per-shard slices live at
	// flat[i*shards : (i+1)*shards]. Both are preallocated at init so
	// steady-state windows touch no allocator.
	meta   []Bucket
	flat   []ShardSlice
	stride uint64 // windows per completed bucket

	pend       Bucket
	pendShards []ShardSlice
	pendN      uint64

	// Flush census accumulated since the last window barrier (a window sees
	// its preceding injection flush plus the prior window's probe).
	pendInjected uint64
	pendBytes    uint64
	pendRetained uint64

	retainedPeak uint64
	flushes      uint64

	onWindow func(totalEvents uint64)
}

// NewCollector creates a collector for a cluster with the given shard count
// (0 defers sizing to the first observed window).
func NewCollector(shards int) *Collector {
	c := &Collector{maxSeries: DefaultMaxSeries}
	if shards > 0 {
		c.init(shards)
	}
	return c
}

// SetMaxSeries overrides the series bound (minimum 2, rounded up to even).
// Call before the first window is observed.
func (c *Collector) SetMaxSeries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 2 {
		n = 2
	}
	n += n & 1
	c.maxSeries = n
	if c.shards > 0 {
		sh := c.shards
		c.shards = 0
		c.init(sh)
	}
}

// SetOnWindow installs a callback invoked after every observed window with
// the cumulative event count — the progress-reporting hook (the callback runs
// outside the collector lock).
func (c *Collector) SetOnWindow(f func(totalEvents uint64)) {
	c.mu.Lock()
	c.onWindow = f
	c.mu.Unlock()
}

func (c *Collector) init(shards int) {
	c.shards = shards
	c.sh = make([]ShardTotals, shards)
	for i := range c.sh {
		c.sh[i].Shard = i
	}
	c.meta = make([]Bucket, 0, c.maxSeries)
	c.flat = make([]ShardSlice, c.maxSeries*shards)
	c.pendShards = make([]ShardSlice, shards)
	c.stride = 1
}

// ObserveWindow implements sim.WindowObserver. Called at each window
// barrier; allocation-free once the collector is initialized.
func (c *Collector) ObserveWindow(rec *sim.WindowRecord) {
	c.mu.Lock()
	if c.shards == 0 {
		c.init(len(rec.ShardStartNs))
	}

	wall := nsU(rec.WallNs)
	w := Bucket{
		Start:       uint64(rec.Anchor),
		End:         uint64(rec.Deadline),
		Windows:     1,
		WallNs:      wall,
		FlushNs:     nsU(rec.FlushNs),
		ActiveSum:   uint64(rec.Active),
		Injected:    c.pendInjected,
		MergedBytes: c.pendBytes,
		RetainedMax: c.pendRetained,
	}
	c.pendInjected, c.pendBytes, c.pendRetained = 0, 0, 0

	n := len(rec.ShardStartNs)
	if n > c.shards {
		n = c.shards
	}
	for i := 0; i < n; i++ {
		start := rec.ShardStartNs[i]
		if start < 0 {
			continue // shard inactive this window
		}
		busy := nsU(rec.ShardBusyNs[i])
		idle := nsU(start)
		var barrier uint64
		if spent := idle + busy; wall > spent {
			barrier = wall - spent
		}
		ev := rec.ShardEvents[i]

		t := &c.sh[i]
		t.Windows++
		t.Events += ev
		t.BusyNs += busy
		t.IdleNs += idle
		t.BarrierNs += barrier
		t.WallNs += wall

		p := &c.pendShards[i]
		p.BusyNs += busy
		p.IdleNs += idle
		p.BarrierNs += barrier
		p.Events += ev

		w.BusyNs += busy
		w.IdleNs += idle
		w.BarrierNs += barrier
		w.Events += ev
	}

	c.totals.merge(&w)
	c.pend.merge(&w)
	c.pendN++
	if c.pendN >= c.stride {
		c.flushPend()
	}
	events := c.totals.Events
	cb := c.onWindow
	c.mu.Unlock()
	if cb != nil {
		cb(events)
	}
}

// flushPend moves the pending bucket into the series, coarsening in place
// when the series is full. Caller holds c.mu.
func (c *Collector) flushPend() {
	if len(c.meta) == c.maxSeries {
		// Pairwise-merge adjacent buckets into the front half and double the
		// stride. All data movement stays inside the preallocated backing.
		half := c.maxSeries / 2
		for k := 0; k < half; k++ {
			b := c.meta[2*k]
			b.merge(&c.meta[2*k+1])
			c.meta[k] = b
			dst := c.flat[k*c.shards : (k+1)*c.shards]
			a := c.flat[2*k*c.shards : (2*k+1)*c.shards]
			bb := c.flat[(2*k+1)*c.shards : (2*k+2)*c.shards]
			for s := range dst {
				dst[s] = a[s]
				dst[s].add(bb[s])
			}
		}
		c.meta = c.meta[:half]
		c.stride *= 2
	}
	i := len(c.meta)
	c.meta = append(c.meta, c.pend)
	copy(c.flat[i*c.shards:(i+1)*c.shards], c.pendShards)
	c.pend = Bucket{}
	for s := range c.pendShards {
		c.pendShards[s] = ShardSlice{}
	}
	c.pendN = 0
}

// RecordFlush implements the network's FlushObserver: one call per Exchanger
// barrier merge with the number of injected cross-host messages, the number
// still buffered (outbox depth), and the payload+header bytes merged.
func (c *Collector) RecordFlush(injected, retained, mergedBytes int) {
	c.mu.Lock()
	c.flushes++
	c.pendInjected += uint64(injected)
	c.pendBytes += uint64(mergedBytes)
	if r := uint64(retained); r > c.pendRetained {
		c.pendRetained = r
	}
	if r := uint64(retained); r > c.retainedPeak {
		c.retainedPeak = r
	}
	c.mu.Unlock()
}

// Windows returns the number of windows observed so far.
func (c *Collector) Windows() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals.Windows
}

// Events returns the cumulative events executed across all shards.
func (c *Collector) Events() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals.Events
}

// Snapshot returns a deep copy of everything collected so far, safe to
// serialize or analyze while the run continues. A pending partial bucket is
// included as the final series entry.
func (c *Collector) Snapshot() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Report{
		Hosts:            c.shards,
		Totals:           c.totals,
		Flushes:          c.flushes,
		RetainedPeak:     c.retainedPeak,
		WindowsPerBucket: c.stride,
	}
	r.PerShard = make([]ShardTotals, len(c.sh))
	copy(r.PerShard, c.sh)
	n := len(c.meta)
	extra := 0
	if c.pendN > 0 {
		extra = 1
	}
	r.Series = make([]SeriesBucket, 0, n+extra)
	for i := 0; i < n; i++ {
		sb := SeriesBucket{Bucket: c.meta[i]}
		sb.Shards = make([]ShardSlice, c.shards)
		copy(sb.Shards, c.flat[i*c.shards:(i+1)*c.shards])
		r.Series = append(r.Series, sb)
	}
	if c.pendN > 0 {
		sb := SeriesBucket{Bucket: c.pend}
		sb.Shards = make([]ShardSlice, c.shards)
		copy(sb.Shards, c.pendShards)
		r.Series = append(r.Series, sb)
	}
	return r
}

func nsU(ns int64) uint64 {
	if ns < 0 {
		return 0
	}
	return uint64(ns)
}
