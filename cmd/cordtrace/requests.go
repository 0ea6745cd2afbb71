package main

import (
	"flag"
	"fmt"

	"cord/internal/obs"
	"cord/internal/sim"
	"cord/internal/stats"
)

// cmdRequests aggregates service-level request completions (req-done events
// from a kvsvc run traced with cordsim -trace-out) into per-class latency
// quantiles — the event-stream view of the curve `cordsim -workload kvsvc`
// prints from its in-run histograms.
func cmdRequests(args []string) error {
	fs := flag.NewFlagSet("requests", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usagef("requests wants exactly one trace, got %d", fs.NArg())
	}
	events, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	var (
		lat   [obs.NumReqKinds]stats.HDist
		total uint64
		last  sim.Time
	)
	for _, ev := range events {
		if ev.At > last {
			last = ev.At
		}
		if ev.Kind != obs.KReqDone || int(ev.Op) >= obs.NumReqKinds {
			continue
		}
		lat[ev.Op].Add(ev.Dur)
		total++
	}
	if total == 0 {
		return fmt.Errorf("%s: no req-done events (not a service workload, or requests sampled out)", fs.Arg(0))
	}
	if *csv {
		fmt.Println("class,count,mean_ns,p50_ns,p95_ns,p99_ns,max_ns")
	} else {
		fmt.Printf("%-8s %10s %10s %10s %10s %10s %10s\n",
			"class", "count", "mean(ns)", "p50(ns)", "p95(ns)", "p99(ns)", "max(ns)")
	}
	row := func(name string, d *stats.HDist) {
		if d.Count() == 0 {
			return
		}
		mean := d.Mean() * sim.Nanos(1)
		p50, p95, p99 := sim.Nanos(d.Quantile(0.5)), sim.Nanos(d.Quantile(0.95)), sim.Nanos(d.Quantile(0.99))
		max := sim.Nanos(d.Max())
		if *csv {
			fmt.Printf("%s,%d,%.1f,%.0f,%.0f,%.0f,%.0f\n", name, d.Count(), mean, p50, p95, p99, max)
		} else {
			fmt.Printf("%-8s %10d %10.1f %10.0f %10.0f %10.0f %10.0f\n", name, d.Count(), mean, p50, p95, p99, max)
		}
	}
	for k := 0; k < obs.NumReqKinds; k++ {
		row(obs.ReqKindName(k), &lat[k])
	}
	var all stats.HDist
	for k := range lat {
		all.Merge(&lat[k])
	}
	row("all", &all)
	if !*csv && last > 0 {
		ns := sim.Nanos(last)
		fmt.Printf("\nthroughput %.0f req/s over %.0f ns of trace\n", float64(total)/(ns*1e-9), ns)
	}
	return nil
}
