package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Report is the serializable snapshot of a Collector: run-wide totals,
// per-shard accounting, and the (possibly coarsened) window series. It is the
// payload of `cordsim -runtime-report`, the `/runtime` live endpoint, and the
// input to `cordtrace scaling`.
type Report struct {
	Hosts int `json:"hosts"`

	Totals       Bucket `json:"totals"`
	Flushes      uint64 `json:"flushes"`
	RetainedPeak uint64 `json:"outbox_retained_peak"`

	PerShard []ShardTotals `json:"per_shard"`

	// WindowsPerBucket is the series stride after coarsening; individual
	// buckets still carry their exact Windows count (the final bucket may be
	// partial).
	WindowsPerBucket uint64         `json:"windows_per_bucket"`
	Series           []SeriesBucket `json:"series"`
}

// SeriesBucket is one timeline bucket with its per-shard decomposition.
type SeriesBucket struct {
	Bucket
	Shards []ShardSlice `json:"shards"`
}

// WriteJSON serializes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report previously written by WriteJSON.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("runtime: parse report: %w", err)
	}
	return &r, nil
}

// LoadReport reads a report file.
func LoadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadReport(f)
}

// Scaling is the overhead analysis of a report: how much of the simulator's
// elapsed wall time executed events, and where the rest went.
//
// The model: the elapsed time is the windows' execute phases plus their
// barrier merges (wall + flush). Shards run one after another inside a
// window, so the execute phase less the shards' busy time is the window
// loop's own bookkeeping: finding the due shards and reading the clocks. The
// merge is the Exchanger filing and injecting cross-host messages. The three
// shares sum to 1.
type Scaling struct {
	Windows uint64 `json:"windows"`
	Events  uint64 `json:"events"`

	// Efficiency is busy / (wall + flush), in [0,1].
	Efficiency float64 `json:"efficiency"`

	// Loss attribution, as fractions of the elapsed time: window
	// bookkeeping (wall - busy) and the barrier merge (flush).
	LostWindow float64 `json:"lost_window"`
	LostMerge  float64 `json:"lost_merge"`

	// Dominant names the larger loss ("window" or "merge"), or "none" when
	// both are below 1%.
	Dominant string `json:"dominant"`

	PerBucket []BucketScaling `json:"per_bucket,omitempty"`
}

// BucketScaling is the same analysis for one timeline bucket.
type BucketScaling struct {
	Start      uint64  `json:"start_cycle"`
	End        uint64  `json:"end_cycle"`
	Windows    uint64  `json:"windows"`
	Efficiency float64 `json:"efficiency"`
	LostWindow float64 `json:"lost_window"`
	LostMerge  float64 `json:"lost_merge"`
	Dominant   string  `json:"dominant"`
}

// analyzeBucket splits one bucket's elapsed time.
func analyzeBucket(b *Bucket) (eff, window, merge float64) {
	elapsed := float64(b.WallNs + b.FlushNs)
	if elapsed <= 0 {
		return 1, 0, 0
	}
	busy := float64(min(b.BusyNs, b.WallNs)) // clock granularity can overshoot by a few ns
	return busy / elapsed, (float64(b.WallNs) - busy) / elapsed, float64(b.FlushNs) / elapsed
}

func dominant(window, merge float64) string {
	switch {
	case window < 0.01 && merge < 0.01:
		return "none"
	case window >= merge:
		return "window"
	default:
		return "merge"
	}
}

// Analyze computes the overhead breakdown for a report.
func Analyze(r *Report) Scaling {
	s := Scaling{Windows: r.Totals.Windows, Events: r.Totals.Events}
	s.Efficiency, s.LostWindow, s.LostMerge = analyzeBucket(&r.Totals)
	s.Dominant = dominant(s.LostWindow, s.LostMerge)
	s.PerBucket = make([]BucketScaling, 0, len(r.Series))
	for i := range r.Series {
		b := &r.Series[i].Bucket
		eff, win, me := analyzeBucket(b)
		s.PerBucket = append(s.PerBucket, BucketScaling{
			Start: b.Start, End: b.End, Windows: b.Windows,
			Efficiency: eff, LostWindow: win, LostMerge: me,
			Dominant: dominant(win, me),
		})
	}
	return s
}

// WriteScaling renders the human-readable report `cordtrace scaling` prints:
// the run-wide split of elapsed time, the per-shard table, and the bucketed
// timeline.
func WriteScaling(w io.Writer, r *Report) error {
	s := Analyze(r)
	fmt.Fprintf(w, "simulator runtime report: %d hosts\n", r.Hosts)
	fmt.Fprintf(w, "windows %d  events %d  wall %.2fms  merge %.2fms  flushes %d\n",
		s.Windows, s.Events,
		float64(r.Totals.WallNs)/1e6, float64(r.Totals.FlushNs)/1e6, r.Flushes)
	fmt.Fprintf(w, "event execution %.1f%% of elapsed | window bookkeeping %.1f%% | cross-host merge %.1f%%  -> dominant loss: %s\n",
		s.Efficiency*100, s.LostWindow*100, s.LostMerge*100, s.Dominant)
	fmt.Fprintf(w, "cross-host: %d msgs / %d bytes merged, outbox peak %d retained\n",
		r.Totals.Injected, r.Totals.MergedBytes, r.RetainedPeak)

	fmt.Fprintf(w, "\nper-shard (busy+idle+barrier tiles each shard's window wall):\n")
	fmt.Fprintf(w, "  %5s %12s %10s %10s %10s %7s\n",
		"shard", "events", "busy-ms", "idle-ms", "barr-ms", "busy%")
	for i := range r.PerShard {
		t := &r.PerShard[i]
		var pct float64
		if t.WallNs > 0 {
			pct = 100 * float64(t.BusyNs) / float64(t.WallNs)
		}
		fmt.Fprintf(w, "  %5d %12d %10.2f %10.2f %10.2f %6.1f%%\n",
			t.Shard, t.Events,
			float64(t.BusyNs)/1e6, float64(t.IdleNs)/1e6, float64(t.BarrierNs)/1e6, pct)
	}

	if len(s.PerBucket) > 0 {
		fmt.Fprintf(w, "\ntimeline (%d windows/bucket):\n", r.WindowsPerBucket)
		fmt.Fprintf(w, "  %22s %8s %6s %9s %9s  %s\n",
			"cycles", "windows", "eff%", "window%", "merge%", "dominant")
		for i := range s.PerBucket {
			b := &s.PerBucket[i]
			fmt.Fprintf(w, "  [%9d,%9d] %8d %5.1f%% %8.1f%% %8.1f%%  %s\n",
				b.Start, b.End, b.Windows, b.Efficiency*100,
				b.LostWindow*100, b.LostMerge*100, b.Dominant)
		}
	}
	return nil
}

// WriteScalingCSV renders the per-bucket analysis as CSV for plotting.
func WriteScalingCSV(w io.Writer, r *Report) error {
	s := Analyze(r)
	if _, err := fmt.Fprintln(w,
		"start_cycle,end_cycle,windows,efficiency,lost_window,lost_merge,dominant"); err != nil {
		return err
	}
	for i := range s.PerBucket {
		b := &s.PerBucket[i]
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%.4f,%.4f,%.4f,%s\n",
			b.Start, b.End, b.Windows, b.Efficiency,
			b.LostWindow, b.LostMerge, b.Dominant); err != nil {
			return err
		}
	}
	return nil
}
