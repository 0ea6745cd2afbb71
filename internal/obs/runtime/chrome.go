package runtime

import "cord/internal/sim"

// ChromePID is the trace_event process id of the "simulator runtime" track
// group — far above any simulated host id, so it can never collide with the
// per-host process tracks the protocol trace emits.
const ChromePID = 1 << 20

// EmitChrome appends the simulator-timeline track group to a Chrome trace:
// one track per shard, each series bucket rendered as consecutive idle /
// busy / barrier slices laid out on the simulated-time axis (the same axis
// the protocol events use, so the runtime timeline lines up under them). The
// slice widths split the bucket's span proportionally to the shard's
// measured wall-time decomposition; args carry the actual nanoseconds.
//
// emit is the comma-managing emitter of obs.WriteChromeTraceWith. Note the
// slices encode wall-clock measurements: a trace written with this track
// group is not byte-stable across runs (see DESIGN.md §12), which is why it
// is opt-in and the default Chrome export never calls it.
func EmitChrome(r *Report, emit func(format string, args ...any)) {
	if r == nil || r.Hosts == 0 {
		return
	}
	emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":"simulator runtime"}}`, ChromePID)
	emit(`{"ph":"M","name":"process_sort_index","pid":%d,"args":{"sort_index":%d}}`, ChromePID, ChromePID)
	for s := 0; s < r.Hosts; s++ {
		emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":"shard %d"}}`,
			ChromePID, s, s)
	}
	phases := [3]struct {
		name, cname string
	}{
		{"idle", "generic_work"}, // start lag: the shards before it in the window
		{"busy", "good"},         // executing events
		{"barrier", "terrible"},  // the shards after it in the window
	}
	for i := range r.Series {
		b := &r.Series[i]
		span := float64(tsMicros(sim.Time(b.End)) - tsMicros(sim.Time(b.Start)))
		if span <= 0 {
			span = 0.001
		}
		for s := range b.Shards {
			sl := &b.Shards[s]
			parts := [3]uint64{sl.IdleNs, sl.BusyNs, sl.BarrierNs}
			total := parts[0] + parts[1] + parts[2]
			if total == 0 {
				continue
			}
			ts := tsMicros(sim.Time(b.Start))
			for p := 0; p < 3; p++ {
				if parts[p] == 0 {
					continue
				}
				dur := span * float64(parts[p]) / float64(total)
				emit(`{"ph":"X","name":%q,"cat":"simruntime","cname":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"wall_ns":%d,"windows":%d,"events":%d}}`,
					phases[p].name, phases[p].cname, ChromePID, s, ts, dur,
					parts[p], b.Windows, sl.Events)
				ts += dur
			}
		}
	}
}

// tsMicros converts simulated cycles to trace_event microseconds (mirrors the
// obs exporter's unit).
func tsMicros(t sim.Time) float64 { return sim.Nanos(t) / 1000 }
