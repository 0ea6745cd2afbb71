package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cord/internal/litmus"
)

// spotCheckSize is how many instances the reduced-vs-unreduced spot check
// re-runs without symmetry and partial-order reduction.
const spotCheckSize = 50

// verifyRunner is the per-change model-check gate: the full and extended
// matrix under symmetry and partial-order reduction, then the spot check
// that re-runs a sample of instances unreduced and requires identical
// verdicts and outcome sets. The seed picks the sample; verdicts and state
// counts do not depend on it, so the golden digests hold at every seed.
type verifyRunner struct {
	seed    int64
	workers int
	// mini selects the probe job list: the base shapes at their canonical
	// placements, without the extended matrix, and a 5-instance spot check.
	mini bool
}

func newVerify(seed int64) *verifyRunner {
	return &verifyRunner{seed: seed, workers: runtime.NumCPU()}
}

func miniVerify(seed int64) *verifyRunner {
	r := newVerify(seed)
	r.mini = true
	return r
}

func (r *verifyRunner) goldenAnySeed() bool { return true }

func (r *verifyRunner) exercised() []string {
	return []string{"litmus.", "trace.self_s.litmus."}
}

// inputs builds the matrix and draws the spot-check sample from it.
func (r *verifyRunner) inputs() (insts []litmus.SuiteInstance, spot []int) {
	n := spotCheckSize
	if r.mini {
		insts, n = litmus.FullMatrix(litmus.BaseTests()), 5
	} else {
		insts = append(litmus.FullMatrix(litmus.FullCordSuite()), litmus.ExtendedMatrix()...)
	}
	// One instance from each of n equal runs of the matrix: every region of
	// it is spot-checked, and the sample's unreduced cost varies less from
	// seed to seed than a plain random draw's (an unreduced instance costs
	// from under a millisecond to tens of them).
	rng := rand.New(rand.NewSource(r.seed))
	n = min(n, len(insts))
	spot = make([]int, n)
	for k := range spot {
		lo, hi := k*len(insts)/n, (k+1)*len(insts)/n
		spot[k] = lo + rng.Intn(hi-lo)
	}
	return insts, spot
}

func (r *verifyRunner) setupOnly() time.Duration {
	c0 := cpuTime()
	r.inputs()
	return cpuTime() - c0
}

func (r *verifyRunner) pass(tr *tracer, lay *layers) passResult {
	p := newPass()
	c0 := cpuTime()
	insts, spot := r.inputs()
	p.setup = cpuTime() - c0

	opts := litmus.SuiteOpts{InstanceWorkers: r.workers, StateWorkers: 1, Symmetry: true, POR: true}
	sp := tr.start("litmus.matrix", 0, "matrix")
	if tr != nil {
		opts.OnInstance = func(rep litmus.InstanceReport) {
			tr.add("litmus.instance", sp, instanceID(rep), time.Duration(rep.WallMS*float64(time.Millisecond)))
		}
	}
	runtime.GC()
	t1, c1 := time.Now(), cpuTime()
	reports, _ := litmus.RunMatrix(insts, opts) // a failed instance carries its Error
	dm, cm := time.Since(t1), cpuTime()-c1
	tr.end(sp)
	lay.add("litmus.matrix_s", dm.Seconds())
	states := map[string]int{}
	for i, rep := range reports {
		id := instanceID(rep)
		p.attempted++
		p.work += float64(rep.States)
		p.digests[id] = fmt.Sprintf("pass=%t states=%d", rep.Pass, rep.States)
		states[id] = rep.States
		if !rep.Pass || rep.Error != "" {
			p.fail(id, "verdict pass=%t error=%q", rep.Pass, rep.Error)
		}
		if lay != nil {
			lay.add("litmus.instances", 1)
			lay.add("litmus.states", float64(rep.States))
			lay.add("litmus.check_s."+kindOf(insts[i].Cfg), rep.WallMS/1000)
			lay.instanceMS = append(lay.instanceMS, rep.WallMS)
		}
	}

	sample := make([]litmus.SuiteInstance, len(spot))
	for i, k := range spot {
		sample[i] = insts[k]
	}
	opts.OnInstance = nil
	opts.VerifyReduction = -1
	sp = tr.start("litmus.spotcheck", 0, "spotcheck")
	runtime.GC()
	t2, c2 := time.Now(), cpuTime()
	checked, _ := litmus.RunMatrix(sample, opts) // divergence is the instance's Error
	ds, cs := time.Since(t2), cpuTime()-c2
	tr.end(sp)
	lay.add("litmus.spotcheck_s", ds.Seconds())
	for _, rep := range checked {
		id := "spot/" + instanceID(rep)
		p.attempted++
		p.work += float64(rep.States + rep.StatesRaw)
		p.digests[id] = fmt.Sprintf("pass=%t states=%d raw=%d", rep.Pass, rep.States, rep.StatesRaw)
		if !rep.Pass || rep.Error != "" || rep.States != states[instanceID(rep)] {
			p.fail(id, "verdict pass=%t error=%q states %d vs %d in the matrix",
				rep.Pass, rep.Error, rep.States, states[instanceID(rep)])
		}
		lay.add("litmus.states_raw", float64(rep.StatesRaw))
		lay.add("litmus.states_verified", float64(rep.States))
	}
	p.runs["matrix"], p.runs["spotcheck"] = cm, cs
	return p
}

func instanceID(rep litmus.InstanceReport) string { return rep.Config + "/" + rep.Test }

// kindOf names the protocol a checker configuration's processors run.
func kindOf(cfg litmus.Config) string {
	for _, k := range cfg.Protos[1:] {
		if k != cfg.Protos[0] {
			return "mixed"
		}
	}
	return cfg.Protos[0].String()
}
