package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// specFile is the part of BENCHMARK.json the diff view needs.
type specFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// change is one metric's relative change from old to new, and whether it is
// worse than the bound allows.
type change struct {
	rel   float64
	worse bool
}

// compare returns new's relative change against old for a metric where
// better is "lower" or "higher"; bound < 0 means unbounded.
func compare(old, new float64, better string, bound float64) change {
	if old == 0 {
		if new == 0 {
			return change{}
		}
		return change{rel: math.Inf(1), worse: bound >= 0 && (better == "lower") == (new > 0)}
	}
	rel := (new - old) / math.Abs(old)
	worseBy := rel
	if better == "higher" {
		worseBy = -rel
	}
	return change{rel: rel, worse: bound >= 0 && worseBy > bound}
}

func (c change) String() string {
	s := fmt.Sprintf("%+.1f%%", 100*c.rel)
	if c.worse {
		s += " !"
	}
	return s
}

// runDiff implements `perfbench diff old.json new.json`: one row per
// workload with each end-to-end metric's change, flagged with "!" when it
// is worse than the bound in BENCHMARK.json; then each per-layer metric's
// change per workload, and any change in the modelled-design numbers. The
// exit code is 1 when a change is out of bounds. It runs from the
// repository root, where BENCHMARK.json is.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench diff old.json new.json")
		return 2
	}
	var spec specFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench diff:", err)
		return 2
	}
	old, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench diff:", err)
		return 2
	}
	cur, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench diff:", err)
		return 2
	}
	if diffResults(stdout, spec, old, cur) {
		return 1
	}
	return 0
}

// diffResults renders the comparison and reports whether any end-to-end
// metric is worse than its bound.
func diffResults(w io.Writer, spec specFile, old, cur resultFile) (flagged bool) {
	workloads := []string{"apps", "kv", "verify"}
	fmt.Fprintf(w, "end-to-end, new vs old (! = worse than the bound)\n%-8s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, " %16s", m.Name)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		o, ok1 := old.Runs[wl]
		n, ok2 := cur.Runs[wl]
		if !ok1 || !ok2 {
			continue
		}
		fmt.Fprintf(w, "%-8s", wl)
		for _, m := range spec.EndToEnd {
			c := compare(o.Metrics[m.Name].Value, n.Metrics[m.Name].Value, m.Better, m.Bound)
			flagged = flagged || c.worse
			fmt.Fprintf(w, " %16s", c)
		}
		fmt.Fprintln(w)
		if o.Stamp.NumCPU != n.Stamp.NumCPU || o.Stamp.GoVersion != n.Stamp.GoVersion {
			fmt.Fprintf(w, "  note: hosts differ (%d CPUs, %s vs %d CPUs, %s)\n",
				o.Stamp.NumCPU, o.Stamp.GoVersion, n.Stamp.NumCPU, n.Stamp.GoVersion)
		}
		for _, k := range sortedKeys(n.Model) {
			if ov, nv := o.Model[k].Value, n.Model[k].Value; ov != nv {
				fmt.Fprintf(w, "  model: %s changed %.6g -> %.6g (the modelled design moved)\n", k, ov, nv)
			}
		}
	}

	var rows []string
	for _, m := range perLayer {
		var cells []string
		seen := false
		for _, wl := range workloads {
			o, ok1 := old.Runs[runKey(wl, 1)]
			n, ok2 := cur.Runs[runKey(wl, 1)]
			if !ok1 || !ok2 {
				cells = append(cells, fmt.Sprintf("%10s", "-"))
				continue
			}
			seen = true
			c := compare(o.Metrics[m.Name].Value, n.Metrics[m.Name].Value, m.Better, -1)
			cells = append(cells, fmt.Sprintf("%10s", c))
		}
		if seen {
			rows = append(rows, fmt.Sprintf("%-36s %s  -> %s", m.Name, strings.Join(cells, " "), m.Moves))
		}
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "\nper-layer, new vs old\n%-36s %10s %10s %10s\n", "metric", "apps", "kv", "verify")
		for _, r := range rows {
			fmt.Fprintln(w, r)
		}
	}
	return flagged
}
