package obs

// Per-shard recording for the host-partitioned simulation engine.
//
// Every run gives each shard (host) its own child recorder: shard-owned
// components and the NoC record into their shard's child, and after the run
// the children are folded back into the parent — metrics by commutative
// Merge, events by a deterministic k-way merge keyed (At, shard index). The
// shards run one after another, so a single shared recorder would work
// mechanically, but the split is what defines the trace bytes: each child
// keeps its own sampling counter, and the (At, shard) merge orders the events
// of one window across shards. A shared recorder fed in shard order would
// reorder events inside a window and sample different messages, changing the
// artifacts of every multi-host run.
//
// One exception keeps live introspection working: when the parent has shared
// (mutex-guarded) metrics — ShareMetrics was called, as the live server does
// — children write the parent's registry directly under its lock. Metrics
// updates are commutative sums and maxes, so the final registry is still
// deterministic; mid-run scrapes simply see a partial sum.

// Split returns n child recorders, one per shard. Children inherit the
// parent's sampling divisor (with independent counters) and its
// configuration: event capture iff the parent captures events, metrics iff
// the parent keeps them. Splitting a nil recorder returns n nils, so
// untraced runs pay nothing.
func (r *Recorder) Split(n int) []*Recorder {
	children := make([]*Recorder, n)
	if r == nil {
		return children
	}
	for i := range children {
		c := &Recorder{sample: r.sample}
		if r.sink != nil {
			mem := &MemSink{}
			c.sink, c.mem = mem, mem
		}
		switch {
		case r.m != nil && r.mu != nil:
			c.m, c.mu = r.m, r.mu // shared live registry, locked updates
		case r.m != nil:
			c.m = NewMetrics()
		}
		children[i] = c
	}
	return children
}

// MergeShards folds children (from Split) back into r: per-shard metrics
// merge into the parent registry, and the per-shard event streams merge into
// the parent sink in (At, shard) order. Within one shard, events keep their
// recording order — the stream is compared by its head event only, so a
// shard's occasional future-stamped event (a KLink recorded at send time)
// stays behind its predecessor. The
// children are drained; calling MergeShards twice is harmless.
func (r *Recorder) MergeShards(children []*Recorder) {
	if r == nil {
		return
	}
	for _, c := range children {
		if c == nil || c.m == nil || c.m == r.m {
			continue // no metrics, or shared with the parent already
		}
		mergeInto := func() { r.m.Merge(c.m) }
		if r.mu != nil {
			r.mu.Lock()
			mergeInto()
			r.mu.Unlock()
		} else {
			mergeInto()
		}
		c.m = nil
	}
	if r.sink == nil {
		return
	}
	// K-way merge of the per-shard streams by (head.At, shard).
	heads := make([]int, len(children))
	for {
		best := -1
		var bestAt uint64
		for i, c := range children {
			if c == nil || c.mem == nil || heads[i] >= len(c.mem.Events) {
				continue
			}
			at := uint64(c.mem.Events[heads[i]].At)
			if best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			break
		}
		r.sink.Record(children[best].mem.Events[heads[best]])
		heads[best]++
	}
	for _, c := range children {
		if c != nil && c.mem != nil {
			c.mem.Events = nil
		}
	}
}
