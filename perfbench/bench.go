package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed reproduces the paper figures' inputs exactly: apps at this
// seed are the CXL half of cordbench's Fig. 7 job list. The committed golden
// digests are for this seed.
const defaultSeed = 42

// minPasses is how many passes every run makes at least, so each seed is
// checked for identical digests from one pass to the next.
const minPasses = 2

// minSetups is how many set-up samples setup_s takes its median over at
// least, and setupBudget how long the extra set-ups after the passes take
// at least.
const (
	minSetups   = 3
	setupBudget = time.Second
)

// passResult is what one pass over a workload's fixed job list yields. Its
// times are the process's CPU time (see cpuTime).
type passResult struct {
	setup time.Duration // building inputs and systems
	// runs holds each job's CPU time after its set-up.
	runs map[string]time.Duration
	// work is what the pass completed: simulated events (apps), requests
	// (kv) or checker states (verify).
	work float64
	// digests maps a job id to the digest of its outputs.
	digests map[string]string
	// attempted counts jobs and claim checks; failed maps each failing one
	// to the reason.
	attempted int
	failed    map[string]string
	// model holds the deterministic modelled-design numbers.
	model map[string]float64
}

func newPass() passResult {
	return passResult{runs: map[string]time.Duration{}, digests: map[string]string{},
		failed: map[string]string{}, model: map[string]float64{}}
}

// fail records a failing job or check.
func (p *passResult) fail(id, format string, args ...any) {
	p.failed[id] = fmt.Sprintf(format, args...)
}

// runner is one workload: a fixed job list derived from the seed.
type runner interface {
	// pass runs the job list once. tr and lay are nil in an untraced pass;
	// in a traced pass the runner records spans into tr and per-layer
	// counters into lay.
	pass(tr *tracer, lay *layers) passResult
	// setupOnly builds every input of a pass without running it and
	// returns the time taken.
	setupOnly() time.Duration
	// goldenAnySeed reports whether the golden digests hold for every seed
	// (the seed then varies only which jobs run, not their outputs).
	goldenAnySeed() bool
	// exercised lists the prefixes of the per-layer metrics a traced pass
	// measures.
	exercised() []string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Model holds the untraced run's modelled-design numbers; the traced
	// run reports them among the per-layer metrics.
	Model    map[string]metric `json:"model,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	// Digests are the first pass's output digests (for --write-golden).
	Digests map[string]string `json:"-"`
}

// options configure one measured run.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// golden holds the expected digests at defaultSeed (nil: none known,
	// which fails the check at that seed).
	golden map[string]string
	// probes are miniature job lists of the other workloads; a traced run
	// passes each once to measure the layers w does not exercise.
	probes []runner
}

// measure runs passes of w until the time is up (at least minPasses), checks
// every pass's outputs, and reduces the samples to metrics. An untraced run
// reports the end-to-end metrics; a traced run alternates untraced and
// traced passes and reports the per-layer metrics, including the tracing
// overhead (the difference of their run times).
func measure(name string, w runner, o options) (result, []span, error) {
	res := result{Workload: name, Metrics: map[string]metric{}}
	var tr *tracer
	var lay *layers
	if o.traced {
		tr, lay = newTracer(), newLayers(w.exercised())
	}
	var setups, rssPeaks []float64
	plainRuns, tracedRuns := jobTimes{}, jobTimes{}
	var first passResult
	checkGolden := o.seed == defaultSeed || w.goldenAnySeed()
	deadline := time.Now().Add(o.seconds)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		// A traced run orders its passes plain, traced, traced, plain, ...
		// so drift in the host's speed biases neither side.
		traced := o.traced && (i%4 == 1 || i%4 == 2)
		var p passResult
		// Hand the previous pass's heap back to the system, so each pass's
		// peak is its own: pages the runtime keeps after a pass on which
		// the collector fell behind would otherwise set every later peak.
		debug.FreeOSMemory()
		resetPeakRSS()
		if traced {
			p = w.pass(tr, lay)
			lay.passes++
			tracedRuns.add(p.runs)
		} else {
			p = w.pass(nil, nil)
			plainRuns.add(p.runs)
		}
		setups = append(setups, p.setup.Seconds())
		rssPeaks = append(rssPeaks, peakRSSMB())
		if i == 0 {
			first = p
		}
		for id, d := range p.digests {
			if want, ok := first.digests[id]; !ok || want != d {
				p.fail(id, "digest %s differs from the first pass's %s", d, want)
			} else if checkGolden {
				if g, ok := o.golden[id]; ok && g != d {
					p.fail(id, "digest %s differs from the golden %s", d, g)
				} else if !ok && o.seed == defaultSeed {
					p.fail(id, "no golden digest")
				}
			}
		}
		if i == 0 && o.seed == defaultSeed {
			for id := range o.golden {
				if _, ok := p.digests[id]; !ok {
					p.fail(id, "golden job did not run")
					p.attempted++
				}
			}
		}
		res.tally(fmt.Sprintf("pass %d", i), p)
	}
	res.Digests = first.digests
	if o.traced {
		for k, v := range first.model {
			lay.set(k, v)
		}
		lay.set("trace.overhead_s", tracedRuns.total()-plainRuns.total())
		lay.spans = tr.snapshot()
		for _, pr := range o.probes {
			ptr, pl := newTracer(), newLayers(pr.exercised())
			p := pr.pass(ptr, pl)
			pl.passes, pl.spans = 1, ptr.snapshot()
			for k, v := range p.model {
				pl.set(k, v)
			}
			res.tally("probe", p)
			lay.probes = append(lay.probes, pl)
		}
		if err := ladder(lay); err != nil {
			return res, nil, err
		}
		res.Correct = res.Failed == 0 && res.Attempted > 0
		for _, m := range perLayer {
			res.Metrics[m.Name] = metric{lay.metric(m.Name), m.Unit}
		}
		return res, lay.spans, nil
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	// A set-up of a few milliseconds (kv, verify) is repeated until the
	// samples span setupBudget, so its median is not at the mercy of one
	// collection or page fault.
	for extra := time.Duration(0); len(setups) < minSetups || extra < setupBudget; {
		d := w.setupOnly()
		extra += d
		setups = append(setups, d.Seconds())
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	run := plainRuns.total()
	res.Metrics["run_cpu_s"] = metric{run, "s"}
	res.Metrics["work_per_cpu_s"] = metric{first.work / run, "1/s"}
	res.Metrics["peak_rss_mb"] = metric{median(rssPeaks), "MB"}
	res.Model = map[string]metric{}
	for k, v := range first.model {
		res.Model[k] = metric{v, unitOf(k)}
	}
	return res, nil, nil
}

// tally adds a pass's checks to the result, naming the first failures.
func (res *result) tally(label string, p passResult) {
	res.Attempted += p.attempted
	res.Failed += len(p.failed)
	for _, id := range sortedKeys(p.failed) {
		if len(res.Problems) < 20 {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %s: %s", label, id, p.failed[id]))
		}
	}
}

// jobTimes collects each job's run time over passes.
type jobTimes map[string][]float64

func (j jobTimes) add(runs map[string]time.Duration) {
	for id, d := range runs {
		j[id] = append(j[id], d.Seconds())
	}
}

// total sums every job's median run time. Taking the median per job, not
// per pass, keeps a burst of interference from the host's other tenants,
// which slows a few jobs of one pass, out of the result.
func (j jobTimes) total() float64 {
	var t float64
	for _, xs := range j {
		t += median(xs)
	}
	return t
}

// cpuTime returns the CPU time the process has used so far, user and system,
// over all its threads. The benchmark times jobs by it rather than by the
// wall clock: on a shared host the other tenants hold the CPUs now and then
// for tens of milliseconds, which swings a job's wall time by tens of
// percent from one minute to the next but leaves its CPU time alone.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// resetPeakRSS starts a new peak resident set size measurement: writing 5 to
// /proc/self/clear_refs sets the kernel's high-water mark (VmHWM) back to
// the current RSS (Linux). Reporting the median of the passes' peaks, not
// the process's lifetime peak, keeps one pass on which the garbage
// collector happened to run late from setting the figure.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size since resetPeakRSS in MB (0
// if the platform has no /proc/self/status).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 64)
			return n / 1024
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

//go:embed golden/*.json
var goldenFS embed.FS

// goldenFile is the on-disk form of a workload's golden digests.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// loadGolden returns the committed digests for a workload (nil if none).
func loadGolden(name string) (map[string]string, error) {
	data, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return nil, nil
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	if g.Seed != defaultSeed {
		return nil, fmt.Errorf("golden %s: recorded at seed %d, want %d", name, g.Seed, defaultSeed)
	}
	return g.Digests, nil
}

// writeGolden stores digests as the golden for a workload in dir.
func writeGolden(dir, name string, digests map[string]string) error {
	data, err := json.MarshalIndent(goldenFile{Seed: defaultSeed, Digests: digests}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}
