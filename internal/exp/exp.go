// Package exp drives the paper's evaluation: it runs workloads under the
// compared protocols and system configurations and regenerates every figure
// and table of the evaluation sections (§3.1, §5, §6, Table 3). Each FigN
// function returns the data series the corresponding figure plots; the
// cordbench command renders them as aligned tables/CSV.
package exp

import (
	"fmt"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/cord"
	"cord/internal/proto/mp"
	"cord/internal/proto/so"
	"cord/internal/proto/wb"
	"cord/internal/stats"
	"cord/internal/workload"
)

// Interconnect selects the simulated inter-PU fabric.
type Interconnect string

// The two fabrics of Table 1.
const (
	CXL Interconnect = "CXL"
	UPI Interconnect = "UPI"
)

// Interconnects lists both fabrics in the paper's order.
func Interconnects() []Interconnect { return []Interconnect{CXL, UPI} }

// NetConfig returns the Table 1 interconnect configuration.
func NetConfig(ic Interconnect) noc.Config {
	switch ic {
	case UPI:
		return noc.UPIConfig()
	default:
		return noc.CXLConfig()
	}
}

// Scheme names the compared protocols.
type Scheme string

// The four schemes of §5.2 (plus SEQ-N baselines for Fig. 10).
const (
	SchemeCORD Scheme = "CORD"
	SchemeSO   Scheme = "SO"
	SchemeMP   Scheme = "MP"
	SchemeWB   Scheme = "WB"
)

// Schemes lists the end-to-end comparison schemes in plot order.
func Schemes() []Scheme { return []Scheme{SchemeMP, SchemeCORD, SchemeSO, SchemeWB} }

// Builder returns a fresh protocol builder for the scheme.
func Builder(s Scheme) proto.Builder {
	switch s {
	case SchemeCORD:
		return cord.New()
	case SchemeSO:
		return so.New()
	case SchemeMP:
		return mp.New()
	case SchemeWB:
		return wb.New()
	default:
		panic(fmt.Sprintf("exp: unknown scheme %q", s))
	}
}

// Run executes one workload under one protocol and system configuration.
func Run(p workload.Pattern, b proto.Builder, nc noc.Config, mode proto.Mode, seed int64) (*stats.Run, error) {
	return RunObserved(p, b, nc, mode, seed, nil)
}

// RunObserved is Run with an optional observability recorder attached for the
// whole simulation (nil behaves exactly like Run).
func RunObserved(p workload.Pattern, b proto.Builder, nc noc.Config, mode proto.Mode,
	seed int64, rec *obs.Recorder) (*stats.Run, error) {
	cores, progs, err := p.Programs(nc)
	if err != nil {
		return nil, err
	}
	sys := proto.NewSystem(seed, nc, mode)
	if rec != nil {
		sys.Observe(rec)
	}
	r, err := proto.Exec(sys, b, cores, progs)
	if err != nil {
		return nil, fmt.Errorf("exp: %s under %s: %w", p.Name, b.Name(), err)
	}
	return r, nil
}

// RunScheme is Run with a named scheme and fabric. When SetRecorder attached
// a live metrics recorder, the run reports into it.
func RunScheme(p workload.Pattern, s Scheme, ic Interconnect, mode proto.Mode) (*stats.Run, error) {
	return RunObserved(p, Builder(s), NetConfig(ic), mode, 42, liveRecorder())
}

// Cell is one (scheme, app, fabric) measurement.
type Cell struct {
	App     string
	Scheme  Scheme
	Fabric  Interconnect
	Time    float64 // nanoseconds
	Traffic float64 // inter-host bytes
	// Skipped marks combinations the paper could not evaluate
	// (TQH under MP, §3.2).
	Skipped bool
}

// Norm returns value v normalized to the CORD cell of the same app/fabric.
func Norm(cells []Cell, c Cell, traffic bool) float64 {
	for _, ref := range cells {
		if ref.App == c.App && ref.Fabric == c.Fabric && ref.Scheme == SchemeCORD {
			if traffic {
				if ref.Traffic == 0 {
					return 0
				}
				return c.Traffic / ref.Traffic
			}
			if ref.Time == 0 {
				return 0
			}
			return c.Time / ref.Time
		}
	}
	return 0
}
