package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. IDs count from 1;
// Parent is the ID of the span that caused it (0 for a root); Job groups the
// spans of one simulation job or checker instance.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer is the
// untraced state: every method returns at once, so the timed run calls the
// same code without recording anything.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its id (0 when untraced).
func (t *tracer) start(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Job: job, Start: at, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// add records an already-finished span, for work whose start the benchmark
// learns only afterwards (a checker instance reports its wall time when it
// completes).
func (t *tracer) add(name string, parent int, job string, dur time.Duration) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Job: job,
		Start: end - int64(dur), End: end})
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover. Children of one
// parent may overlap (checker instances run concurrently), so the covered
// part is the length of the union of their intervals, clipped to the
// parent's. Open spans (End < 0) are ignored.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of ivs within [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := ivs[0][0], ivs[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range ivs[1:] {
		if iv[0] > curHi {
			flush()
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	flush()
	return total
}

// writeSpans writes the spans as one JSON document, creating the directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
