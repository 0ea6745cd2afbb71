// Command perfbench is the repository benchmark. It runs one workload with
// inputs made from a seed, measures it for a given time, checks every output
// against golden digests and against itself, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// From the repository root (run.sh builds it from source first):
//
//	bash perfbench/run.sh --workload apps --seed 42 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload kv,verify --trace 1 --out results.json
//	bash perfbench/run.sh diff old.json new.json
//
// Workloads: apps (the Fig. 7 job list on CXL), kv (the sharded KV service
// on 16 hosts under open-loop load) and verify (the reduced model-check
// matrix plus a reduced-vs-unreduced spot check). --trace 0 reports the
// end-to-end metrics; --trace 1 is a separate run that records spans around
// every call into a layer, runs the layer ladder, and reports the per-layer
// metrics. --out merges the results, stamped with the host, into a result
// file; diff compares two such files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:], os.Stdout, os.Stderr))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	names := fs.String("workload", "", "apps, kv, verify, or a comma-separated list of them")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 10, "how long to measure, at least two passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", "", "merge the results into this result file")
	goldenDir := fs.String("write-golden", "", "write this run's digests as the golden into this directory (default seed only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *names == "":
		return errors.New("--workload is required")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	case *seconds < 1:
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	case *goldenDir != "" && *seed != defaultSeed:
		return fmt.Errorf("--write-golden needs the default seed %d", defaultSeed)
	}
	for _, name := range strings.Split(*names, ",") {
		w, err := newRunner(name, *seed)
		if err != nil {
			return err
		}
		golden, err := loadGolden(name)
		if err != nil {
			return err
		}
		o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, golden: golden}
		if o.traced {
			o.probes = probes(name, *seed)
		}
		res, spans, err := measure(name, w, o)
		if err != nil {
			return err
		}
		if o.traced {
			path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", name, *seed))
			if err := writeSpans(path, spans); err != nil {
				return err
			}
		}
		if *goldenDir != "" {
			if err := writeGolden(*goldenDir, name, res.Digests); err != nil {
				return err
			}
		}
		if *out != "" {
			if err := mergeResult(*out, res, newStamp(*seed, *seconds, *trace)); err != nil {
				return err
			}
		}
		if err := report(stdout, res, o.traced); err != nil {
			return err
		}
	}
	return nil
}

func newRunner(name string, seed int64) (runner, error) {
	switch name {
	case "apps":
		return newApps(seed), nil
	case "kv":
		return newKV(seed), nil
	case "verify":
		return newVerify(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want apps, kv or verify)", name)
}

// probes returns the miniature job lists of the workloads other than name.
func probes(name string, seed int64) []runner {
	var out []runner
	if name != "apps" {
		out = append(out, miniApps(seed))
	}
	if name != "kv" {
		out = append(out, miniKV(seed))
	}
	if name != "verify" {
		out = append(out, miniVerify(seed))
	}
	return out
}

// report prints every metric with its unit, then the run's one-line JSON
// summary.
func report(w io.Writer, res result, traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed\n", res.Workload, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  FAIL", p)
	}
	for _, s := range specs {
		m := res.Metrics[s.Name]
		fmt.Fprintf(w, "  %-36s %16.6g %-6s", s.Name, m.Value, s.Unit)
		if traced {
			fmt.Fprintf(w, " -> %s", s.Moves)
		}
		fmt.Fprintln(w)
	}
	for _, k := range sortedKeys(res.Model) {
		fmt.Fprintf(w, "  %-36s %16.6g %-6s (modelled design)\n", k, res.Model[k].Value, res.Model[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
