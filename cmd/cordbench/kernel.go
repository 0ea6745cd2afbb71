package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"cord/internal/exp"
	"cord/internal/proto"
	"cord/internal/workload"
)

// kernelResult is one row of BENCH_kernel.json: how much one protocol
// allocates per retired simulation event. Allocations are amortized over the
// whole run (system construction included), so steady-state numbers are
// lower. internal/proto's allocation gate reads these rows; wall-clock speed
// is perfbench's to measure.
type kernelResult struct {
	Scheme        string  `json:"scheme"`
	Fabric        string  `json:"fabric"`
	Workload      string  `json:"workload"`
	Events        uint64  `json:"events"`
	AllocsPerEvnt float64 `json:"allocs_per_event"`
}

// kernelReport is the machine-readable baseline committed as
// BENCH_kernel.json. Allocation counts are deterministic for one Go version,
// so the gate can hold them tight.
type kernelReport struct {
	GeneratedBy string         `json:"generated_by"`
	GoVersion   string         `json:"go_version"`
	GOARCH      string         `json:"goarch"`
	Protocols   []kernelResult `json:"protocols"`
}

// benchProtocol runs one full protocol simulation on the Table 1 CXL system
// and counts the heap allocations per executed event.
func benchProtocol(s exp.Scheme) (kernelResult, error) {
	p := workload.Micro(256, 64, 3, 20000)
	nc := exp.NetConfig(exp.CXL)
	cores, progs, err := p.Programs(nc)
	if err != nil {
		return kernelResult{}, err
	}
	sys := proto.NewSystem(42, nc, proto.RC)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := proto.Exec(sys, exp.Builder(s), cores, progs); err != nil {
		return kernelResult{}, err
	}
	runtime.ReadMemStats(&m1)
	n := sys.Executed()
	return kernelResult{
		Scheme:        string(s),
		Fabric:        string(exp.CXL),
		Workload:      p.Name,
		Events:        n,
		AllocsPerEvnt: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}, nil
}

// kernelBench writes BENCH_kernel.json to path.
func kernelBench(path string) error {
	rep := kernelReport{
		GeneratedBy: "cordbench -kernel",
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
	}
	for _, s := range exp.Schemes() {
		r, err := benchProtocol(s)
		if err != nil {
			return err
		}
		rep.Protocols = append(rep.Protocols, r)
		fmt.Fprintf(os.Stderr, "kernel: %-4s %-3s %8d events  %.3f allocs/event\n",
			r.Scheme, r.Fabric, r.Events, r.AllocsPerEvnt)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
