package exp

import (
	"fmt"

	"cord/internal/energy"
	"cord/internal/proto"
	"cord/internal/stats"
	"cord/internal/trace"
	"cord/internal/workload"
)

// ---------------------------------------------------------------------------
// Fig. 2 — source ordering's acknowledgment overheads (§3.1)
// ---------------------------------------------------------------------------

// Fig2Row is one bar pair of Fig. 2: the percentage of execution time a
// workload spends waiting for write-through acknowledgments under source
// ordering, and the percentage of inter-PU traffic the acknowledgments are.
type Fig2Row struct {
	App        string
	Fabric     Interconnect
	TimePct    float64
	TrafficPct float64
}

// Fig2 runs every application under SO on both fabrics (in parallel).
func Fig2() ([]Fig2Row, error) {
	type job struct {
		ic  Interconnect
		app workload.Pattern
	}
	var jobs []job
	for _, ic := range Interconnects() {
		for _, app := range workload.Apps() {
			jobs = append(jobs, job{ic, app})
		}
	}
	rows := make([]Fig2Row, len(jobs))
	progressStart("fig2", len(jobs))
	err := forEach(len(jobs), func(i int) error {
		j := jobs[i]
		r, err := RunScheme(j.app, SchemeSO, j.ic, proto.RC)
		if err != nil {
			return err
		}
		rows[i] = Fig2Row{
			App:        j.app.Name,
			Fabric:     j.ic,
			TimePct:    100 * r.StallFraction(stats.StallAckWait),
			TrafficPct: 100 * r.AckTrafficFraction(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 7 (RC) and Fig. 13 (TSO) — end-to-end workloads (§5.2, §6)
// ---------------------------------------------------------------------------

// EndToEnd runs every app under every scheme and fabric for the given
// consistency mode; Fig7 and Fig13 are its two instantiations. The runs are
// independent simulations, so they execute on a worker pool.
func EndToEnd(mode proto.Mode) ([]Cell, error) {
	type job struct {
		ic  Interconnect
		app workload.Pattern
		s   Scheme
	}
	var jobs []job
	for _, ic := range Interconnects() {
		for _, app := range workload.Apps() {
			for _, s := range Schemes() {
				jobs = append(jobs, job{ic, app, s})
			}
		}
	}
	cells := make([]Cell, len(jobs))
	progressStart("end-to-end "+mode.String(), len(jobs))
	err := forEach(len(jobs), func(i int) error {
		j := jobs[i]
		if j.s == SchemeMP && j.app.MPIncompatible {
			cells[i] = Cell{App: j.app.Name, Scheme: j.s, Fabric: j.ic, Skipped: true}
			return nil
		}
		r, err := RunScheme(j.app, j.s, j.ic, mode)
		if err != nil {
			return err
		}
		cells[i] = Cell{
			App: j.app.Name, Scheme: j.s, Fabric: j.ic,
			Time: r.ExecNanos(), Traffic: float64(r.Traffic.TotalInter()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// Fig7 is the release-consistency end-to-end comparison.
func Fig7() ([]Cell, error) { return EndToEnd(proto.RC) }

// Fig13 is the TSO end-to-end comparison.
func Fig13() ([]Cell, error) { return EndToEnd(proto.TSO) }

// GeoMeanRatio returns the geometric-mean Time (or Traffic) of scheme s
// normalized to CORD across apps for one fabric, skipping Skipped cells.
func GeoMeanRatio(cells []Cell, s Scheme, ic Interconnect, traffic bool) float64 {
	prod, n := 1.0, 0
	for _, c := range cells {
		if c.Scheme != s || c.Fabric != ic || c.Skipped {
			continue
		}
		v := Norm(cells, c, traffic)
		if v <= 0 {
			continue
		}
		prod *= v
		n++
	}
	if n == 0 {
		return 0
	}
	return pow(prod, 1/float64(n))
}

func pow(x, y float64) float64 {
	// local wrapper to avoid importing math in several files
	return mathPow(x, y)
}

// ---------------------------------------------------------------------------
// Fig. 8 — sensitivity to store/sync granularity and fan-out (§5.3)
// ---------------------------------------------------------------------------

// SensPoint is one x-value of a Fig. 8 panel: times and traffics for
// MP/CORD/SO at that parameter value.
type SensPoint struct {
	Panel  string // "store", "sync", "fanout"
	X      int
	Fabric Interconnect
	Time   map[Scheme]float64
	Bytes  map[Scheme]float64
}

// Fig. 8's parameter grids. Defaults: store 64 B, sync 4 KB, fan-out 1.
var (
	Fig8StoreGrans = []int{8, 64, 256, 1024, 4096}
	Fig8SyncGrans  = []int{64, 512, 4096, 32 * 1024, 256 * 1024, 2 * 1024 * 1024}
	Fig8Fanouts    = []int{1, 3, 7}
)

const (
	defStore = 64
	defSync  = 4096
	defFan   = 1
)

// microRounds keeps run cost flat across sync granularities.
func microRounds(sync int) int {
	r := (4 * 1024 * 1024) / sync
	if r < 4 {
		r = 4
	}
	if r > 200 {
		r = 200
	}
	return r
}

func sensSchemes() []Scheme { return []Scheme{SchemeMP, SchemeCORD, SchemeSO} }

func runSens(panel string, x int, mk func() workload.Pattern, ic Interconnect) (SensPoint, error) {
	pt := SensPoint{Panel: panel, X: x, Fabric: ic,
		Time: make(map[Scheme]float64), Bytes: make(map[Scheme]float64)}
	for _, s := range sensSchemes() {
		r, err := RunScheme(mk(), s, ic, proto.RC)
		if err != nil {
			return pt, err
		}
		pt.Time[s] = r.ExecNanos()
		pt.Bytes[s] = float64(r.Traffic.TotalInter())
	}
	return pt, nil
}

// Fig8 sweeps the three application characteristics on both fabrics.
func Fig8() ([]SensPoint, error) {
	var pts []SensPoint
	progressStart("fig8", len(Interconnects())*
		(len(Fig8StoreGrans)+len(Fig8SyncGrans)+len(Fig8Fanouts)))
	for _, ic := range Interconnects() {
		for _, g := range Fig8StoreGrans {
			g := g
			sync := defSync
			if sync < g {
				sync = g
			}
			pt, err := runSens("store", g, func() workload.Pattern {
				return workload.Micro(g, sync, defFan, microRounds(sync))
			}, ic)
			if err != nil {
				return nil, err
			}
			pts = append(pts, pt)
			progressStep(1)
		}
		for _, y := range Fig8SyncGrans {
			y := y
			pt, err := runSens("sync", y, func() workload.Pattern {
				return workload.Micro(defStore, y, defFan, microRounds(y))
			}, ic)
			if err != nil {
				return nil, err
			}
			pts = append(pts, pt)
			progressStep(1)
		}
		for _, f := range Fig8Fanouts {
			f := f
			pt, err := runSens("fanout", f, func() workload.Pattern {
				return workload.Micro(defStore, defSync, f, microRounds(defSync))
			}, ic)
			if err != nil {
				return nil, err
			}
			pts = append(pts, pt)
			progressStep(1)
		}
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Fig. 9 — inter-PU directory access latency sweep (§5.3)
// ---------------------------------------------------------------------------

// Fig9Point is SO's time and traffic normalized to CORD at one latency.
type Fig9Point struct {
	Panel     string
	Param     int // the panel's parameter value (gran/fan-out)
	LatencyNs int
	TimeRatio float64
	ByteRatio float64
}

// Fig9Latencies is the swept inter-PU directory access latency.
var Fig9Latencies = []int{100, 200, 300, 400}

// Fig9 sweeps latency under three store granularities, three sync
// granularities, and three fan-outs.
func Fig9() ([]Fig9Point, error) {
	type variant struct {
		panel string
		param int
		mk    func() workload.Pattern
	}
	var vs []variant
	for _, g := range []int{8, 64, 4096} {
		g := g
		sync := defSync
		if sync < g {
			sync = g
		}
		vs = append(vs, variant{"store", g, func() workload.Pattern {
			return workload.Micro(g, sync, defFan, microRounds(sync))
		}})
	}
	for _, y := range []int{64, 4096, 256 * 1024} {
		y := y
		vs = append(vs, variant{"sync", y, func() workload.Pattern {
			return workload.Micro(defStore, y, defFan, microRounds(y))
		}})
	}
	for _, f := range []int{1, 3, 7} {
		f := f
		vs = append(vs, variant{"fanout", f, func() workload.Pattern {
			return workload.Micro(defStore, defSync, f, microRounds(defSync))
		}})
	}
	var pts []Fig9Point
	progressStart("fig9", len(vs)*len(Fig9Latencies))
	for _, v := range vs {
		for _, lat := range Fig9Latencies {
			nc := NetConfig(CXL)
			nc.InterHostNs = float64(lat)
			cordRun, err := Run(v.mk(), Builder(SchemeCORD), nc, proto.RC, 42)
			if err != nil {
				return nil, err
			}
			soRun, err := Run(v.mk(), Builder(SchemeSO), nc, proto.RC, 42)
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig9Point{
				Panel: v.panel, Param: v.param, LatencyNs: lat,
				TimeRatio: soRun.ExecNanos() / cordRun.ExecNanos(),
				ByteRatio: float64(soRun.Traffic.TotalInter()) / float64(cordRun.Traffic.TotalInter()),
			})
			progressStep(1)
		}
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Fig. 10 — epoch/store-counter bit-width vs monolithic sequence numbers
// ---------------------------------------------------------------------------

// Fig10Point compares CORD at one bit-width against SEQ-8 and SEQ-40.
type Fig10Point struct {
	Panel  string // "cnt" (sweep store counter) or "epoch"
	Bits   int
	Fabric Interconnect
	// Times/Bytes for CORD at this width and the two SEQ baselines.
	CordTime, Seq8Time, Seq40Time    float64
	CordBytes, Seq8Bytes, Seq40Bytes float64
}

// Fig10CntBits and Fig10EpochBits are the swept widths.
var (
	Fig10CntBits   = []int{8, 16, 32}
	Fig10EpochBits = []int{4, 8, 16}
)

// fig10Workload triggers counter overflow at small widths: 2 MB of 64 B
// stores per Release (32768 stores per epoch).
func fig10Workload() workload.Pattern {
	return workload.Micro(64, 2*1024*1024, defFan, 8)
}

// Fig10 sweeps the two bit-widths on both fabrics. The runs are independent
// simulations, so they execute on a worker pool: per fabric, the SEQ-8 and
// SEQ-40 baselines, then CORD at every swept width.
func Fig10() ([]Fig10Point, error) {
	type job struct {
		ic    Interconnect
		panel string // "" for a SEQ baseline
		bits  int
		b     proto.Builder
	}
	var jobs []job
	for _, ic := range Interconnects() {
		jobs = append(jobs, job{ic, "", 8, seqBuilder(8)}, job{ic, "", 40, seqBuilder(40)})
		for _, b := range Fig10CntBits {
			jobs = append(jobs, job{ic, "cnt", b, cordBits(8, b)})
		}
		for _, b := range Fig10EpochBits {
			jobs = append(jobs, job{ic, "epoch", b, cordBits(b, 32)})
		}
	}
	runs := make([]*stats.Run, len(jobs))
	progressStart("fig10", len(jobs))
	err := forEach(len(jobs), func(i int) error {
		var err error
		runs[i], err = Run(fig10Workload(), jobs[i].b, NetConfig(jobs[i].ic), proto.RC, 42)
		return err
	})
	if err != nil {
		return nil, err
	}
	var pts []Fig10Point
	var seq8, seq40 *stats.Run
	for i, j := range jobs {
		r := runs[i]
		switch {
		case j.panel == "" && j.bits == 8:
			seq8 = r
		case j.panel == "":
			seq40 = r
		default:
			pts = append(pts, Fig10Point{
				Panel: j.panel, Bits: j.bits, Fabric: j.ic,
				CordTime: r.ExecNanos(), Seq8Time: seq8.ExecNanos(), Seq40Time: seq40.ExecNanos(),
				CordBytes:  float64(r.Traffic.TotalInter()),
				Seq8Bytes:  float64(seq8.Traffic.TotalInter()),
				Seq40Bytes: float64(seq40.Traffic.TotalInter()),
			})
		}
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Figs. 11 & 12 — storage overheads (§5.4)
// ---------------------------------------------------------------------------

// StorageRow is one (workload, #PUs, fabric) storage measurement.
type StorageRow struct {
	App    string
	Hosts  int
	Fabric Interconnect
	// ProcBytes and DirBytes are the worst per-instance peak table bytes.
	ProcBytes int
	DirBytes  int
	// Breakdown (Fig. 12).
	ProcCounters int // processor store counters
	ProcOther    int // unacked-epoch table
	DirNetBuf    int // recycled Release network buffer
	DirTables    int // directory look-up tables
}

// Fig11Hosts is the swept system size.
var Fig11Hosts = []int{2, 4, 8}

// Fig11 measures CORD's peak storage for SSSP, PAD, PR and ATA.
func Fig11() ([]StorageRow, error) {
	var rows []StorageRow
	total := 0
	for _, hosts := range Fig11Hosts {
		total += len(Interconnects()) * len(workload.StorageApps(hosts))
	}
	progressStart("fig11", total)
	for _, ic := range Interconnects() {
		for _, hosts := range Fig11Hosts {
			for _, app := range workload.StorageApps(hosts) {
				nc := NetConfig(ic)
				r, err := Run(app, Builder(SchemeCORD), nc, proto.RC, 42)
				if err != nil {
					return nil, err
				}
				procCnt := r.PeakPerInstanceByName("proc/store-counter")
				procOther := r.PeakPerInstanceByName("proc/unacked-epoch")
				netBuf := r.PeakPerInstanceByName("dir/network-buffer")
				rows = append(rows, StorageRow{
					App: app.Name, Hosts: hosts, Fabric: ic,
					ProcBytes:    r.PeakPerInstance("proc/"),
					DirBytes:     r.PeakPerInstance("dir/"),
					ProcCounters: procCnt,
					ProcOther:    procOther,
					DirNetBuf:    netBuf,
					DirTables:    r.PeakPerInstance("dir/") - netBuf,
				})
				progressStep(1)
			}
		}
	}
	return rows, nil
}

// Fig12 is Fig11 restricted to ATA with the breakdown highlighted.
func Fig12(rows []StorageRow) []StorageRow {
	var out []StorageRow
	for _, r := range rows {
		if r.App == "ATA" {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 3 — look-up table sizes, area, power, access energy (§5.4)
// ---------------------------------------------------------------------------

// Table3Row is one row of Table 3.
type Table3Row struct {
	Component string
	Entries   string
	AreaMM2   float64
	PowerMW   float64
	ReadNJ    float64
	WriteNJ   float64
	Total     bool
}

// Table3 evaluates the CACTI-calibrated model on the deployed tables.
func Table3() []Table3Row {
	tech := energy.CACTI22nm()
	procTabs, dirTabs := energy.CordTables(16)
	var rows []Table3Row
	emit := func(section string, tabs []energy.Table, perProc int) {
		s := tech.Summarize(tabs)
		rows = append(rows, Table3Row{
			Component: section + " (total)",
			AreaMM2:   s.TotalArea, PowerMW: s.TotalPow, Total: true,
		})
		for _, c := range s.Costs {
			entries := fmt.Sprintf("%d", c.Table.Entries)
			if perProc > 1 && c.Table.Entries%perProc == 0 && c.Table.Entries > perProc {
				entries = fmt.Sprintf("%d*%d", c.Table.Entries/perProc, perProc)
			}
			rows = append(rows, Table3Row{
				Component: c.Table.Name, Entries: entries,
				AreaMM2: c.AreaMM2, PowerMW: c.PowerMW,
				ReadNJ: c.ReadNJ, WriteNJ: c.WriteNJ,
			})
		}
	}
	emit("Processor", procTabs, 1)
	emit("Directory", dirTabs, 16)
	return rows
}

// ---------------------------------------------------------------------------
// Table 2 — workload characterization (§5.1)
// ---------------------------------------------------------------------------

// Table2Row characterizes one evaluated application the way Table 2 does.
type Table2Row struct {
	App          string
	RelaxedGran  float64 // mean Relaxed store payload, bytes
	ReleaseGran  float64 // mean data per Release, bytes
	Fanout       float64 // mean distinct remote hosts per rank
	FanoutClass  string  // Low / Medium / High, as Table 2 labels it
	MPCompatible bool
}

// Table2 measures the generated traces of every application.
func Table2() ([]Table2Row, error) {
	nc := NetConfig(CXL)
	var rows []Table2Row
	for _, app := range workload.Apps() {
		tr, err := trace.FromWorkload(app, nc)
		if err != nil {
			return nil, err
		}
		s := trace.Characterize(tr)
		class := "Low"
		switch {
		case s.Fanout >= 5:
			class = "High"
		case s.Fanout >= 2:
			class = "Medium"
		}
		rows = append(rows, Table2Row{
			App:          app.Name,
			RelaxedGran:  s.RelaxedBytes,
			ReleaseGran:  s.ReleaseGranBytes,
			Fanout:       s.Fanout,
			FanoutClass:  class,
			MPCompatible: !app.MPIncompatible,
		})
	}
	return rows, nil
}
