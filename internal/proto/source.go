package proto

import (
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/sim"
)

// OpSource supplies a core's operation stream one op at a time, pulled at
// simulated time. The core calls Next exactly when it is ready to issue: at
// start, and thereafter each time the previous op has retired (for stores and
// barriers, when the protocol released the core; for compute, when the cycles
// elapsed). `now` is the core's engine clock at that moment, so a source can
// base decisions — think-time expiry, open-loop arrivals, request-latency
// measurement — on virtual time alone.
//
// Returning ok=false ends the stream permanently: the core retires and
// reports Done. A source must keep returning false once it has done so (cores
// may re-poll), and Next must never block or consult wall-clock time — in a
// partitioned multi-host run the wall-clock order in which different host
// shards pull is scheduler-dependent, so any determinism a source provides
// must come from its own state and the virtual `now` alone. For the same
// reason a source must not share mutable state with sources on other hosts;
// cross-core interaction belongs in the simulated memory system (release
// stores observed by acquire loads), which the conservative-window scheduler
// already orders deterministically.
//
// The zero-allocation expectation of the hot path extends to sources: Next is
// called once per op, so a steady-state Next should not allocate (see the
// AllocsPerRun guards in source_test.go, and workload's and kvsvc's for
// their sources).
type OpSource interface {
	Next(now sim.Time) (op Op, ok bool)
}

// CoreAttachable is optionally implemented by sources that want the identity
// of the core executing them and its host shard's engine clock and
// observability recorder (nil-safe, like every recorder use). ProcBase
// invokes it once, at StartSource, before the first Next.
type CoreAttachable interface {
	AttachCore(core noc.NodeID, eng *sim.Engine, rec *obs.Recorder)
}

// programSource is the trivial OpSource: replay a pre-compiled Program in
// order. Every pre-existing workload runs through it, which is what keeps the
// static-program path byte-identical to the pre-OpSource execution model.
type programSource struct {
	prog Program
	pc   int
}

func (s *programSource) Next(sim.Time) (Op, bool) {
	if s.pc >= len(s.prog) {
		return Op{}, false
	}
	op := s.prog[s.pc]
	s.pc++
	return op, true
}

// Source returns p as a pull-based OpSource (a fresh cursor each call).
func (p Program) Source() OpSource { return &programSource{prog: p} }
