// Command cordcheck model-checks the protocols' consistency guarantees
// (§4.5 of the paper): it exhaustively explores every litmus-test variant
// under every CORD configuration, verifies source ordering, and
// demonstrates that message passing reaches the ISA2 forbidden outcome.
//
//	cordcheck                      # full suite, all cores
//	cordcheck -test MP             # one shape, all placements, all configs
//	cordcheck -quick               # canonical placements only
//	cordcheck -workers 8           # explicit parallelism (default GOMAXPROCS)
//	cordcheck -exact               # full state keys + collision audit
//	cordcheck -symmetry -por       # canonicalize up to test automorphisms,
//	                               # expand ample sets (DESIGN.md §14)
//	cordcheck -extended            # append the 4-processor / overflow-width /
//	                               # table-pressure matrix
//	cordcheck -verify-reduction 50 # rerun ~50 instances unreduced and require
//	                               # identical verdicts and outcome sets (-1 = all)
//	cordcheck -progress            # live ETA / states-per-second on stderr
//	cordcheck -report out.json     # machine-readable per-instance verdicts
//	cordcheck -diff-reports a b    # compare two checkreports; exit 1 on
//	                               # verdict drift or >10% state drift
//	cordcheck -mem-limit 2048      # abort beyond ~2 GiB of retained state
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cord/internal/litmus"
	"cord/internal/obs/live"
)

func main() {
	var (
		only     = flag.String("test", "", "restrict to one base shape")
		quick    = flag.Bool("quick", false, "canonical placements only")
		verb     = flag.Bool("v", false, "print per-test results")
		workers  = flag.Int("workers", 0, "total exploration parallelism (0 = GOMAXPROCS)")
		exact    = flag.Bool("exact", false, "keep full state keys and audit fingerprint collisions")
		symmetry = flag.Bool("symmetry", false, "canonicalize states up to each test's automorphism group")
		por      = flag.Bool("por", false, "ample-set partial-order reduction over independent transitions")
		extended = flag.Bool("extended", false, "append the 4-processor and stress-configuration matrix")
		verifyN  = flag.Int("verify-reduction", 0, "rerun N instances unreduced and compare verdicts (-1 = all)")
		memLimit = flag.Int("mem-limit", 0, "approximate retained-state budget in MiB (0 = unlimited)")
		progress = flag.Bool("progress", false, "print live progress with ETA and states/sec to stderr")
		repOut   = flag.String("report", "", "write machine-readable checkreport JSON to this path")
		diff     = flag.Bool("diff-reports", false, "compare two checkreport files (prev cur) instead of checking")
	)
	flag.Parse()
	if *workers < 0 || *memLimit < 0 || *verifyN < -1 {
		fmt.Fprintf(os.Stderr, "cordcheck: -workers %d -mem-limit %d -verify-reduction %d: "+
			"workers and mem-limit must be >= 0, verify-reduction >= -1 (-1 = all)\n", *workers, *memLimit, *verifyN)
		os.Exit(2)
	}

	if *diff {
		os.Exit(diffReports(flag.Args()))
	}

	var shapes []litmus.Test
	for _, b := range litmus.BaseTests() {
		if *only == "" || b.Name == *only {
			shapes = append(shapes, b)
		}
	}
	if len(shapes) == 0 {
		fmt.Fprintf(os.Stderr, "cordcheck: no base test %q\n", *only)
		os.Exit(2)
	}
	var suite []litmus.Test
	if *quick {
		suite = shapes
	} else {
		for _, s := range shapes {
			suite = append(suite, litmus.Variants(s)...)
		}
	}

	insts := litmus.FullMatrix(suite)
	if *extended && *only == "" {
		insts = append(insts, litmus.ExtendedMatrix()...)
	}

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Across-instance parallelism first (the matrix has ~1600 independent
	// cells); leftover parallelism goes to in-instance exploration, so a
	// single-instance run (-test X -quick) still uses every core.
	iw := w
	if iw > len(insts) {
		iw = len(insts)
	}
	sw := w / iw
	if sw < 1 {
		sw = 1
	}

	var budget *litmus.MemBudget
	if *memLimit > 0 {
		budget = litmus.NewMemBudget(int64(*memLimit) << 20)
	}

	var pr *live.Progress
	var stopProgress func()
	if *progress {
		pr = live.NewProgress()
		pr.SetUnitLabel("states")
		pr.Start("cordcheck", len(insts))
		stopProgress = pr.StartPrinter(os.Stderr, time.Second)
	}

	start := time.Now()
	reports, err := litmus.RunMatrix(insts, litmus.SuiteOpts{
		InstanceWorkers: iw,
		StateWorkers:    sw,
		Exact:           *exact,
		Symmetry:        *symmetry,
		POR:             *por,
		VerifyReduction: *verifyN,
		MemBudget:       budget,
		OnInstance: func(r litmus.InstanceReport) {
			if pr != nil {
				pr.Step(1)
				pr.AddUnits(int64(r.States))
			}
		},
	})
	wall := time.Since(start)
	if stopProgress != nil {
		stopProgress()
	}

	rep := litmus.Summarize(reports)
	rep.GoVersion = runtime.Version()
	rep.Workers = w
	rep.Exact = *exact
	rep.Symmetry = *symmetry
	rep.POR = *por
	rep.Extended = *extended
	rep.WallMS = float64(wall.Microseconds()) / 1000
	failed := printSummary(reports, rep, *verb)

	if *repOut != "" {
		if werr := litmus.WriteReport(*repOut, rep); werr != nil {
			fmt.Fprintln(os.Stderr, "cordcheck:", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cordcheck:", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Printf("FAILED: %d instances\n", failed)
		os.Exit(1)
	}
	fmt.Println("all litmus checks passed; CORD enforces release consistency and is deadlock-free")
}

// diffReports implements -diff-reports prev cur: verdict drift or
// unexplained >10% canonical-state drift on a common row is fatal; added or
// removed rows and explained shifts are printed as notes.
func diffReports(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "cordcheck: -diff-reports needs exactly two report paths (prev cur)")
		return 2
	}
	prev, err := litmus.ReadReport(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cordcheck:", err)
		return 2
	}
	cur, err := litmus.ReadReport(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cordcheck:", err)
		return 2
	}
	failures, notes := litmus.DiffReports(prev, cur)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	fmt.Printf("diff: %d rows vs %d rows, %d failures, %d notes\n",
		len(prev.Instances), len(cur.Instances), len(failures), len(notes))
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// printSummary renders the per-config lines (matching the historical
// cordcheck output: the mp-demo demonstration is reported separately and
// excluded from the instance/state totals) and returns the failure count.
func printSummary(reports []litmus.InstanceReport, rep litmus.CheckReport, verbose bool) int {
	type agg struct {
		name          string
		passed, total int
		states        int64
		rows          []litmus.InstanceReport
	}
	var order []string
	byCfg := map[string]*agg{}
	for _, r := range reports {
		a := byCfg[r.Config]
		if a == nil {
			a = &agg{name: r.Config}
			byCfg[r.Config] = a
			order = append(order, r.Config)
		}
		a.total++
		a.states += int64(r.States)
		if r.Pass {
			a.passed++
		}
		a.rows = append(a.rows, r)
	}

	failed := 0
	total, states := 0, int64(0)
	for _, name := range order {
		a := byCfg[name]
		if name == "mp-demo" {
			continue
		}
		total += a.total
		states += a.states
		failed += a.total - a.passed
		fmt.Printf("config %-14s %4d/%-4d passed (%d states)\n", a.name, a.passed, a.total, a.states)
		if verbose {
			for _, f := range a.rows {
				if f.Pass {
					continue
				}
				fmt.Printf("  FAIL %s (forbidden=%t deadlock=%t window=%t reached=%t)\n",
					f.Test, f.Forbidden, f.Deadlock, f.WindowViolated, f.Reached)
				if f.Error != "" {
					fmt.Printf("    error: %s\n", f.Error)
				}
				for _, s := range f.Trace {
					fmt.Println("    ", s)
				}
			}
		}
	}
	if demo := byCfg["mp-demo"]; demo != nil {
		for _, r := range demo.rows {
			if r.Pass {
				fmt.Printf("message passing:    %s forbidden outcome REACHED (as §3.2 predicts, %d states)\n",
					r.Test, r.States)
			} else {
				fmt.Printf("message passing:    %s violation NOT demonstrated — model error\n", r.Test)
				failed++
			}
		}
	}
	fmt.Printf("total: %d test instances, %d states explored", total, states)
	if rep.Exact {
		fmt.Printf(", %d fingerprint collisions", rep.Collisions)
	}
	if rep.Verified > 0 {
		fmt.Printf("\nverify-reduction: %d instances reran unreduced, %d raw states, %.2fx reduction",
			rep.Verified, rep.StatesRaw, rep.ReductionRatio)
	}
	fmt.Printf(" (%.1fs, %d workers)\n", rep.WallMS/1000, rep.Workers)
	return failed
}
