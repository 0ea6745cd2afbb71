package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"cord/internal/exp"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/stats"
	"cord/internal/workload"
)

// The paper's headline CXL results (§5.2) that model.paper_err_* measure
// the reproduction against: SO/CORD geometric-mean execution time and
// inter-host traffic.
const (
	paperSOTime    = 1.28
	paperSOTraffic = 1.12
)

type appsJob struct {
	id     string
	app    workload.Pattern
	scheme exp.Scheme
}

// appsRunner is the Fig. 7 job list on CXL under RC: the ten Table 2 apps
// under MP, CORD, SO and WB, minus TQH under MP, run one at a time on the
// serial engine. The seed drives the system's jitter and each app's
// message-size sampling; defaultSeed gives the figure's exact inputs.
type appsRunner struct {
	seed int64
	nc   noc.Config
	jobs []appsJob
	// claims checks the paper's claims over the whole job list.
	claims bool
}

func newApps(seed int64) *appsRunner {
	return newAppsOf(seed, workload.AppNames(), true)
}

// miniApps is the probe job list: one app under the four protocols.
func miniApps(seed int64) *appsRunner {
	return newAppsOf(seed, []string{"PAD"}, false)
}

func newAppsOf(seed int64, names []string, claims bool) *appsRunner {
	r := &appsRunner{seed: seed, nc: exp.NetConfig(exp.CXL), claims: claims}
	for _, app := range workload.Apps() {
		if !slices.Contains(names, app.Name) {
			continue
		}
		app.Seed += seed - defaultSeed
		for _, s := range exp.Schemes() {
			if s == exp.SchemeMP && app.MPIncompatible {
				continue
			}
			r.jobs = append(r.jobs, appsJob{id: app.Name + "/" + string(s), app: app, scheme: s})
		}
	}
	return r
}

func (r *appsRunner) goldenAnySeed() bool { return false }

func (r *appsRunner) exercised() []string {
	return []string{"workload.", "proto.", "noc.msgs", "noc.flush_s", "noc.merged_msgs", "sim.cluster.",
		"trace.self_s.job", "trace.self_s.workload.", "trace.self_s.proto.", "model.paper_err"}
}

func (r *appsRunner) setupOnly() time.Duration {
	c0 := cpuTime()
	for _, j := range r.jobs {
		// A failing Programs is reported by the passes; here only its time
		// counts.
		_, _, _ = j.app.Programs(r.nc)
		proto.NewSystem(r.seed, r.nc, proto.RC)
	}
	return cpuTime() - c0
}

func (r *appsRunner) pass(tr *tracer, lay *layers) passResult {
	p := newPass()
	var cells []exp.Cell
	for _, j := range r.jobs {
		// Start every job from a collected heap, so a job's time does not
		// depend on garbage the previous one left.
		runtime.GC()
		p.attempted++
		job := tr.start("job", 0, j.id)
		cores, progs, sys, setup, err := r.setup(j, tr, lay, job)
		p.setup += setup
		if err != nil {
			tr.end(job)
			p.fail(j.id, "programs: %v", err)
			continue
		}
		run, d, err := simulate(sys, j.scheme, tr, lay, job, j.id, func(b proto.Builder) (*stats.Run, error) {
			return proto.Exec(sys, b, cores, progs)
		})
		tr.end(job)
		p.runs[j.id] = d
		if err != nil {
			p.fail(j.id, "exec: %v", err)
			continue
		}
		p.work += float64(sys.Executed())
		p.digests[j.id] = runDigest(run)
		cells = append(cells, exp.Cell{App: j.app.Name, Scheme: j.scheme, Fabric: exp.CXL,
			Time: run.ExecNanos(), Traffic: float64(run.Traffic.TotalInter())})
	}
	if r.claims && len(cells) == len(r.jobs) {
		claims(&p, cells)
	}
	return p
}

// setup generates a job's programs and builds its system, and returns the
// CPU time that took.
func (r *appsRunner) setup(j appsJob, tr *tracer, lay *layers, job int) ([]noc.NodeID, []proto.Program, *proto.System, time.Duration, error) {
	t0, c0 := time.Now(), cpuTime()
	sp := tr.start("workload.programs", job, j.id)
	var m0 uint64
	if lay != nil {
		m0 = mallocs()
	}
	cores, progs, err := j.app.Programs(r.nc)
	if lay != nil {
		lay.add("workload.allocs", float64(mallocs()-m0))
		lay.add("workload.programs_s", time.Since(t0).Seconds())
		for _, prog := range progs {
			lay.add("workload.ops", float64(len(prog)))
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, cpuTime() - c0, err
	}
	sp = tr.start("proto.new_system", job, j.id)
	t1 := time.Now()
	sys := proto.NewSystem(r.seed, r.nc, proto.RC)
	lay.add("proto.new_system_s", time.Since(t1).Seconds())
	tr.end(sp)
	return cores, progs, sys, cpuTime() - c0, nil
}

// claims checks the directions of the paper's CXL claims that the
// repository's selfcheck asserts, and records how far the headline ratios
// sit from the paper's.
func claims(p *passResult, cells []exp.Cell) {
	gmean := func(s exp.Scheme, traffic bool) float64 { return exp.GeoMeanRatio(cells, s, exp.CXL, traffic) }
	norm := func(app string, s exp.Scheme, traffic bool) float64 {
		for _, c := range cells {
			if c.App == app && c.Scheme == s {
				return exp.Norm(cells, c, traffic)
			}
		}
		return math.NaN()
	}
	check := func(id string, ok bool, format string, args ...any) {
		p.attempted++
		if !ok {
			p.fail("claim/"+id, format, args...)
		}
	}
	so, soTraf, mp := gmean(exp.SchemeSO, false), gmean(exp.SchemeSO, true), gmean(exp.SchemeMP, false)
	p.model["model.paper_err_time"] = math.Abs(so-paperSOTime) / paperSOTime
	p.model["model.paper_err_traffic"] = math.Abs(soTraf-paperSOTraffic) / paperSOTraffic
	check("so-time", so > 1.15, "SO/CORD gmean time %.3f, want > 1.15", so)
	check("mp-time", mp > 0.90, "MP/CORD gmean time %.3f, want > 0.90", mp)
	check("so-traffic", soTraf > 1.05, "SO/CORD gmean traffic %.3f, want > 1.05", soTraf)
	for _, app := range workload.AppNames() {
		t := norm(app, exp.SchemeSO, true)
		if app == "TRNS" || app == "MOCFE" {
			check("extra-traffic/"+app, t <= 1.05, "SO/CORD traffic %.3f, want <= 1.05", t)
		} else {
			check("saves-traffic/"+app, t > 1.0, "SO/CORD traffic %.3f, want > 1.0", t)
		}
	}
	wbPR, wbSSSP := norm("PR", exp.SchemeWB, false), norm("SSSP", exp.SchemeWB, true)
	check("wb-time/PR", wbPR <= 1.05, "WB/CORD time %.3f, want <= 1.05", wbPR)
	check("wb-traffic/SSSP", wbSSSP < 1.0, "WB/CORD traffic %.3f, want < 1.0", wbSSSP)
}
