package main

import (
	"time"

	"cord/internal/exp"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/stats"
)

// timedBuilder times a protocol's Build, which proto.Exec calls first, as a
// child span of the exec span.
type timedBuilder struct {
	proto.Builder
	tr     *tracer
	lay    *layers
	parent int
	job    string
}

func (b timedBuilder) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	sp := b.tr.start("proto.build", b.parent, b.job)
	t0 := time.Now()
	cpus := b.Builder.Build(sys, cores)
	b.lay.add("proto.build_s", time.Since(t0).Seconds())
	b.tr.end(sp)
	return cpus
}

// simulate runs one simulation job under scheme s through exec (a call to
// proto.Exec or proto.ExecSources) and returns its statistics and the CPU
// time it took. In a traced pass it also records the exec span, attaches the
// runtime collector, and counts the protocol's events, allocations and
// messages.
func simulate(sys *proto.System, s exp.Scheme, tr *tracer, lay *layers, parent int, job string,
	exec func(proto.Builder) (*stats.Run, error)) (*stats.Run, time.Duration, error) {
	sp := tr.start("proto.exec", parent, job)
	b := exp.Builder(s)
	var m0 uint64
	if lay != nil {
		sys.AttachRuntime(lay.collector(sys.Net.Config().Hosts))
		b = timedBuilder{Builder: b, tr: tr, lay: lay, parent: sp, job: job}
		m0 = mallocs()
	}
	t0, c0 := time.Now(), cpuTime()
	r, err := exec(b)
	d, cpu := time.Since(t0), cpuTime()-c0
	tr.end(sp)
	if lay != nil && err == nil {
		p := string(s)
		lay.add("proto.allocs."+p, float64(mallocs()-m0))
		lay.add("proto.exec_s."+p, d.Seconds())
		lay.add("proto.events."+p, float64(sys.Executed()))
		var msgs uint64
		for c := 0; c < stats.NumClasses; c++ {
			msgs += r.Traffic.InterMsgs[c] + r.Traffic.IntraMsgs[c]
		}
		lay.add("noc.msgs", float64(msgs))
	}
	return r, cpu, err
}
