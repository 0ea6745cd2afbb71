// Command cordbench regenerates the paper's evaluation figures and tables.
//
//	cordbench -fig 7          # one figure
//	cordbench -table 3        # Table 3
//	cordbench -all            # everything (several minutes)
//	cordbench -all -csv out/  # also write CSV files
//
// Each figure prints the same rows/series the paper plots: normalized
// execution time and inter-PU traffic for Figs. 7/13, overhead percentages
// for Fig. 2, parameter sweeps for Figs. 8-10, storage bytes for
// Figs. 11-12, and the area/power/energy table for Table 3.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cord/internal/exp"
	"cord/internal/obs"
	"cord/internal/obs/live"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to regenerate (2, 7, 8, 9, 10, 11, 12, 13)")
		table    = flag.Int("table", 0, "table to regenerate (2 or 3)")
		all      = flag.Bool("all", false, "regenerate every figure and table")
		ablation = flag.Bool("ablation", false, "run the design-choice ablations")
		self     = flag.Bool("selfcheck", false, "verify the paper's headline claims end-to-end")
		csv      = flag.String("csv", "", "directory to also write CSV files into")
		httpAddr = flag.String("http", "", "serve live sweep progress/metrics/pprof on this address, e.g. localhost:6060")
		progress = flag.Bool("progress", false, "print sweep progress lines to stderr")
		kernel   = flag.String("kernel", "", "measure per-protocol allocations per event and write BENCH_kernel.json to this path (- for stdout)")
	)
	flag.Parse()

	// Sweep progress and aggregate metrics are observable two ways: -progress
	// prints the tracker to stderr each second, -http serves it (with the
	// shared metrics registry and pprof) until the process exits. Both hook
	// the exp package's sweeps.
	if *progress || *httpAddr != "" {
		prog := live.NewProgress()
		exp.SetProgress(prog)
		if *httpAddr != "" {
			rec := obs.NewMetricsOnly()
			exp.SetRecorder(rec)
			srv, err := live.NewServer(*httpAddr, rec, prog, map[string]string{"cmd": "cordbench"})
			if err != nil {
				fmt.Fprintln(os.Stderr, "cordbench:", err)
				os.Exit(1)
			}
			srv.Start()
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "live introspection on http://%s\n", srv.Addr())
		}
		if *progress {
			stop := prog.StartPrinter(os.Stderr, time.Second)
			defer stop()
		}
	}

	if *kernel != "" {
		if err := kernelBench(*kernel); err != nil {
			fmt.Fprintln(os.Stderr, "cordbench:", err)
			os.Exit(1)
		}
		return
	}

	if *self {
		lines, ok, err := exp.SelfCheck()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cordbench:", err)
			os.Exit(1)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		if !ok {
			fmt.Println("artifact evaluation FAILED")
			os.Exit(1)
		}
		fmt.Println("Artifact evaluation complete")
		return
	}

	// emit writes one figure or table to stdout and, with -csv, to
	// name.csv, exiting 1 on the first error, a failed CSV write included.
	emit := func(name, title string, fn func(*writer) error) {
		w := newWriter(*csv, name)
		if title != "" {
			fmt.Printf("==== %s ====\n", title)
		}
		err := fn(w)
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cordbench:", err)
			os.Exit(1)
		}
	}
	figs := map[int]func(*writer) error{
		2: fig2, 7: fig7, 8: fig8, 9: fig9, 10: fig10, 11: fig11, 12: fig12, 13: fig13,
	}
	run := func(n int) {
		f, ok := figs[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "cordbench: no figure %d\n", n)
			os.Exit(2)
		}
		emit(fmt.Sprintf("fig%d", n), fmt.Sprintf("Figure %d", n), f)
	}
	switch {
	case *all:
		for _, n := range []int{2, 7, 8, 9, 10, 11, 12, 13} {
			run(n)
		}
		emit("table2", "table2", table2)
		emit("table3", "table3", table3)
		emit("ablation", "ablation", ablations)
	case *fig != 0:
		run(*fig)
	case *table == 2:
		emit("table2", "", table2)
	case *table == 3:
		emit("table3", "", table3)
	case *ablation:
		emit("ablation", "", ablations)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// table2 reproduces the workload characterization of Table 2 from the
// generated traces.
func table2(w *writer) error {
	rows, err := exp.Table2()
	if err != nil {
		return err
	}
	w.row("app", "relaxed_gran_B", "release_gran_B", "fanout", "class", "mp_compatible")
	for _, r := range rows {
		mp := "yes"
		if !r.MPCompatible {
			mp = "no (ISA2 pattern)"
		}
		w.row(r.App, f(r.RelaxedGran), f0(r.ReleaseGran), f(r.Fanout), r.FanoutClass, mp)
	}
	return nil
}

// ablations prints the design-choice studies.
func ablations(w *writer) error {
	w.row("study", "variant", "time/CORD", "traffic/CORD")
	pts, err := exp.AblationNotifications()
	if err != nil {
		return err
	}
	for _, p := range pts {
		w.row("notifications-off "+p.Name, p.Variant, f(p.Time), f(p.Bytes))
	}
	pts, err = exp.AblationTableCap()
	if err != nil {
		return err
	}
	for _, p := range pts {
		w.row("table-capacity "+p.Name, p.Variant, f(p.Time), f(p.Bytes))
	}
	return nil
}

// writer tees rows to stdout (aligned) and optionally to a CSV file. It keeps
// the first CSV write error for close to report, so a full disk cannot
// silently truncate the file.
type writer struct {
	csv *os.File
	err error
}

func newWriter(dir, name string) *writer {
	w := &writer{}
	if dir == "" {
		return w
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "cordbench:", err)
		os.Exit(1)
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cordbench:", err)
		os.Exit(1)
	}
	w.csv = f
	return w
}

func (w *writer) row(cols ...string) {
	fmt.Println(strings.Join(cols, "\t"))
	if w.csv != nil && w.err == nil {
		_, w.err = fmt.Fprintln(w.csv, strings.Join(cols, ","))
	}
}

// close closes the CSV file and returns the first write or close error.
func (w *writer) close() error {
	if w.csv == nil {
		return nil
	}
	if err := w.csv.Close(); w.err == nil {
		w.err = err
	}
	return w.err
}

func f(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

func fig2(w *writer) error {
	rows, err := exp.Fig2()
	if err != nil {
		return err
	}
	w.row("app", "fabric", "exec_time_pct", "traffic_pct")
	for _, r := range rows {
		w.row(r.App, string(r.Fabric), f(r.TimePct), f(r.TrafficPct))
	}
	return nil
}

func endToEnd(w *writer, cells []exp.Cell) {
	w.row("app", "fabric", "scheme", "time_ns", "traffic_B", "time/CORD", "traffic/CORD")
	for _, c := range cells {
		if c.Skipped {
			w.row(c.App, string(c.Fabric), string(c.Scheme), "N/A", "N/A", "N/A", "N/A")
			continue
		}
		w.row(c.App, string(c.Fabric), string(c.Scheme),
			f0(c.Time), f0(c.Traffic),
			f(exp.Norm(cells, c, false)), f(exp.Norm(cells, c, true)))
	}
	for _, ic := range exp.Interconnects() {
		for _, s := range exp.Schemes() {
			if s == exp.SchemeCORD {
				continue
			}
			w.row("GMEAN", string(ic), string(s),
				"", "",
				f(exp.GeoMeanRatio(cells, s, ic, false)),
				f(exp.GeoMeanRatio(cells, s, ic, true)))
		}
	}
}

func fig7(w *writer) error {
	cells, err := exp.Fig7()
	if err != nil {
		return err
	}
	endToEnd(w, cells)
	return nil
}

func fig13(w *writer) error {
	cells, err := exp.Fig13()
	if err != nil {
		return err
	}
	endToEnd(w, cells)
	return nil
}

func fig8(w *writer) error {
	pts, err := exp.Fig8()
	if err != nil {
		return err
	}
	w.row("panel", "x", "fabric", "MP_ns", "CORD_ns", "SO_ns", "MP_B", "CORD_B", "SO_B")
	for _, p := range pts {
		w.row(p.Panel, fmt.Sprint(p.X), string(p.Fabric),
			f0(p.Time[exp.SchemeMP]), f0(p.Time[exp.SchemeCORD]), f0(p.Time[exp.SchemeSO]),
			f0(p.Bytes[exp.SchemeMP]), f0(p.Bytes[exp.SchemeCORD]), f0(p.Bytes[exp.SchemeSO]))
	}
	return nil
}

func fig9(w *writer) error {
	pts, err := exp.Fig9()
	if err != nil {
		return err
	}
	w.row("panel", "param", "latency_ns", "SO_time/CORD", "SO_traffic/CORD")
	for _, p := range pts {
		w.row(p.Panel, fmt.Sprint(p.Param), fmt.Sprint(p.LatencyNs), f(p.TimeRatio), f(p.ByteRatio))
	}
	return nil
}

func fig10(w *writer) error {
	pts, err := exp.Fig10()
	if err != nil {
		return err
	}
	w.row("panel", "bits", "fabric", "CORD_ns", "SEQ8_ns", "SEQ40_ns", "CORD_B", "SEQ8_B", "SEQ40_B")
	for _, p := range pts {
		w.row(p.Panel, fmt.Sprint(p.Bits), string(p.Fabric),
			f0(p.CordTime), f0(p.Seq8Time), f0(p.Seq40Time),
			f0(p.CordBytes), f0(p.Seq8Bytes), f0(p.Seq40Bytes))
	}
	return nil
}

func fig11(w *writer) error {
	rows, err := exp.Fig11()
	if err != nil {
		return err
	}
	w.row("app", "hosts", "fabric", "proc_B", "dir_B")
	for _, r := range rows {
		w.row(r.App, fmt.Sprint(r.Hosts), string(r.Fabric),
			fmt.Sprint(r.ProcBytes), fmt.Sprint(r.DirBytes))
	}
	return nil
}

func fig12(w *writer) error {
	rows, err := exp.Fig11()
	if err != nil {
		return err
	}
	w.row("hosts", "fabric", "proc_counters_B", "proc_other_B", "dir_netbuf_B", "dir_tables_B")
	for _, r := range exp.Fig12(rows) {
		w.row(fmt.Sprint(r.Hosts), string(r.Fabric),
			fmt.Sprint(r.ProcCounters), fmt.Sprint(r.ProcOther),
			fmt.Sprint(r.DirNetBuf), fmt.Sprint(r.DirTables))
	}
	return nil
}

func table3(w *writer) error {
	w.row("component", "entries", "area_mm2", "power_mW", "read_nJ", "write_nJ")
	for _, r := range exp.Table3() {
		if r.Total {
			w.row(r.Component, "", f(r.AreaMM2), f(r.PowerMW), "", "")
			continue
		}
		w.row(r.Component, r.Entries, f(r.AreaMM2), f(r.PowerMW), f(r.ReadNJ), f(r.WriteNJ))
	}
	return nil
}
