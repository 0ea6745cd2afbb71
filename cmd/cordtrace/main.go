// Command cordtrace analyzes event traces exported by cordsim -trace-out
// (JSONL, one event per line). It answers the questions the aggregate stats
// cannot: where each core's cycles went, which releases were slowest and why,
// and how two runs' traffic differs class by class.
//
// Subcommands:
//
//	analyze   trace.jsonl             per-core attribution + machine breakdown
//	top       [-k 10] trace.jsonl     slowest releases with per-segment latency
//	diff      a.jsonl b.jsonl         per-class traffic delta between two runs
//	breakdown trace.jsonl...          Fig. 2-style breakdown row per trace
//	requests  trace.jsonl             service-level request latency per class
//	                                  (kvsvc runs; aggregates req-done events)
//	scaling   report.json             window and merge overhead of a
//	                                  cordsim -runtime-report snapshot
//
// All subcommands accept -csv for machine-readable output. Traces must be
// recorded at -trace-sample 1 for the attribution to be exact; sampled traces
// still analyze, but undercount. A usage error exits with status 2, any
// other failure with status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cord/internal/obs"
	"cord/internal/obs/analyze"
	rt "cord/internal/obs/runtime"
)

func usage() {
	fmt.Fprint(os.Stderr, `usage: cordtrace <command> [flags] <trace.jsonl>...

commands:
  analyze   trace.jsonl        per-core time attribution and machine breakdown
  top       trace.jsonl        slowest releases on the critical path (-k N)
  diff      a.jsonl b.jsonl    per-class traffic delta between two traces
  breakdown trace.jsonl...     compute/stall/traffic breakdown per trace
  requests  trace.jsonl        service-level request latency per class (kvsvc)
  scaling   report.json        window and merge overhead of the simulator
                               from a cordsim -runtime-report snapshot

flags (per command):
  -csv    emit CSV instead of aligned tables
  -k N    number of releases for top (default 10)
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "analyze":
		err = cmdAnalyze(args)
	case "top":
		err = cmdTop(args)
	case "diff":
		err = cmdDiff(args)
	case "breakdown":
		err = cmdBreakdown(args)
	case "requests":
		err = cmdRequests(args)
	case "scaling":
		err = cmdScaling(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cordtrace: unknown command %q\n\n", cmd)
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordtrace: %v\n", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a malformed command line, as opposed to a failure while
// reading or analyzing its inputs.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func loadTrace(path string) ([]obs.Event, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadJSONL(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return events, nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usagef("analyze wants exactly one trace, got %d", fs.NArg())
	}
	events, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	att := analyze.Attribute(events)
	tr := analyze.TrafficOf(events)
	if *csv {
		return att.WriteCSV(os.Stdout)
	}
	if err := att.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	b := att.Breakdown(tr)
	if err := b.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	cp := analyze.CriticalPath(events)
	if len(cp.Releases) > 0 {
		if err := cp.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	k := fs.Int("k", 10, "number of releases to show")
	fs.Parse(args)
	if *k < 0 {
		return usagef("top -k %d: must be >= 0", *k)
	}
	if fs.NArg() != 1 {
		return usagef("top wants exactly one trace, got %d", fs.NArg())
	}
	events, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	cp := analyze.CriticalPath(events)
	if len(cp.Releases) == 0 {
		return fmt.Errorf("%s: no releases in trace (relaxed-only run, or acks sampled out)", fs.Arg(0))
	}
	if *csv {
		return cp.WriteTopCSV(os.Stdout, *k)
	}
	if err := cp.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return cp.WriteTop(os.Stdout, *k)
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return usagef("diff wants exactly two traces, got %d", fs.NArg())
	}
	ea, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	eb, err := loadTrace(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := analyze.DiffTraffic(analyze.TrafficOf(ea), analyze.TrafficOf(eb))
	if *csv {
		return analyze.WriteTrafficDiffCSV(os.Stdout, rows)
	}
	fmt.Printf("A = %s\nB = %s\n\n", fs.Arg(0), fs.Arg(1))
	return analyze.WriteTrafficDiff(os.Stdout, rows)
}

func cmdScaling(args []string) error {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit per-bucket CSV")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usagef("scaling wants exactly one runtime report, got %d", fs.NArg())
	}
	rep, err := rt.LoadReport(fs.Arg(0))
	if err != nil {
		return err
	}
	if rep.Totals.Windows == 0 {
		return fmt.Errorf("%s: no windows recorded", fs.Arg(0))
	}
	if *csv {
		return rt.WriteScalingCSV(os.Stdout, rep)
	}
	return rt.WriteScaling(os.Stdout, rep)
}

func cmdBreakdown(args []string) error {
	fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return usagef("breakdown wants at least one trace")
	}
	for i, path := range fs.Args() {
		events, err := loadTrace(path)
		if err != nil {
			return err
		}
		b := analyze.BreakdownOf(events)
		if *csv {
			if err := b.WriteCSV(os.Stdout); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s:\n", path)
		if err := b.WriteTable(os.Stdout); err != nil {
			return err
		}
		tr := analyze.TrafficOf(events)
		if err := tr.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
