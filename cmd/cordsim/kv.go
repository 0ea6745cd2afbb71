package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"cord"
)

// kvFlags carries the -kv-* knobs from main into the KV-service runner.
type kvFlags struct {
	clients    int
	requests   int
	getPct     int
	valueBytes int
	shards     int
	servers    int
	think      float64
	arrival    float64 // > 0 switches to open-loop Poisson arrivals
	loads      string  // comma-separated load multipliers for the curve
}

// kvConfig lowers the flag values onto the default service configuration.
func (f kvFlags) config(seed int64) cord.KVService {
	w := cord.KVServiceDefault()
	w.Clients = f.clients
	w.Requests = f.requests
	w.GetPct = f.getPct
	w.ValueBytes = f.valueBytes
	w.Shards = f.shards
	w.ServersPerHost = f.servers
	w.ThinkCycles = f.think
	if f.arrival > 0 {
		w.OpenLoop = true
		w.ArrivalCycles = f.arrival
	}
	w.Seed = seed
	return w
}

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("cordsim: bad load multiplier %q (want positive numbers, e.g. -kv-loads 0.5,1,2,4)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cordsim: -kv-loads is empty")
	}
	return out, nil
}

// scale derives the configuration at one load multiplier: the mean think
// (closed loop) or inter-arrival (open loop) time shrinks as load grows.
func scale(base cord.KVService, mult float64) cord.KVService {
	w := base
	if w.OpenLoop {
		w.ArrivalCycles = base.ArrivalCycles / mult
	} else {
		w.ThinkCycles = base.ThinkCycles / mult
	}
	return w
}

// runKV sweeps the sharded KV service over load multipliers and prints the
// throughput-vs-offered-load curve with the request-latency tail. With
// -compare all four protocols run; otherwise only -proto does. When exactly
// one (protocol, load) point runs, -trace-out/-metrics-out export its event
// stream and metrics (analyze the stream with `cordtrace requests`). Bad
// -kv-* values exit 2 before any output, quoting the unscaled values given.
func runKV(f kvFlags, p cord.Protocol, sys cord.System, compare bool, seed int64,
	traceOut, metricsOut string, traceSample int) {
	loads, err := parseLoads(f.loads)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	base := f.config(seed)
	if err := base.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "cordsim: bad -kv-* flags: %v\n", err)
		os.Exit(2)
	}
	protocols := []cord.Protocol{p}
	if compare {
		protocols = cord.Protocols()
	}
	observe := (traceOut != "" || metricsOut != "") && len(protocols) == 1 && len(loads) == 1
	if (traceOut != "" || metricsOut != "") && !observe {
		fmt.Fprintln(os.Stderr, "cordsim: -trace-out/-metrics-out need a single kvsvc point; drop -compare and pass one -kv-loads value")
		os.Exit(1)
	}
	mode := "closed"
	if base.OpenLoop {
		mode = "open"
	}
	fmt.Printf("workload          kvsvc (%s loop, %d clients/server, %d%% gets, %d B values)\n",
		mode, base.Clients, base.GetPct, base.ValueBytes)
	fmt.Printf("%-6s %6s %14s %14s %10s %10s %10s %10s %10s\n",
		"proto", "load", "offered(r/s)", "achieved(r/s)", "p50(ns)", "p95(ns)", "p99(ns)", "get-p99", "put-p99")
	for _, proto := range protocols {
		for _, mult := range loads {
			var (
				r   *cord.KVResult
				o   *cord.Observation
				err error
			)
			if observe {
				opt := cord.TraceOptions{Sample: traceSample, MetricsOnly: traceOut == ""}
				r, o, err = cord.SimulateKVObserved(scale(base, mult), proto, sys, opt)
			} else {
				r, err = cord.SimulateKV(scale(base, mult), proto, sys)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			_, p50, p95, p99 := r.LatencyNanos()
			g, pu := r.GetPutP99Nanos()
			fmt.Printf("%-6s %6.2g %14.0f %14.0f %10.0f %10.0f %10.0f %10.0f %10.0f\n",
				proto, mult, r.OfferedRequestsPerSecond(), r.RequestsPerSecond(),
				p50, p95, p99, g, pu)
			if o != nil {
				writeObservation(o, traceOut, metricsOut, nil)
			}
		}
	}
}
