package litmus

import (
	"fmt"

	"cord/internal/proto/core"
)

// Step is one transition of a counterexample trace: either processor Proc
// executing its next enabled action, or the delivery of one in-flight
// message. Steps are self-contained — replaying them needs only the test and
// configuration — so a trace survives serialization into checkreport.json.
type Step struct {
	Deliver bool     `json:"deliver,omitempty"`
	Proc    int      `json:"proc"`
	Msg     core.Msg `json:"msg,omitempty"`
}

func (s Step) String() string {
	if s.Deliver {
		return fmt.Sprintf("deliver %s", msgString(s.Msg))
	}
	return fmt.Sprintf("P%d steps", s.Proc)
}

// msgString renders a message compactly for trace output.
func msgString(m core.Msg) string {
	kind := [...]string{"Relaxed", "Release", "ReqNotify", "Notify", "Ack",
		"AtomicResp", "SOStore", "SOAck", "MPStore", "MPFlush", "MPFlushOK",
		"WBGetM", "WBFill", "WBData", "WBFlag", "WBAck"}[m.Kind]
	return fmt.Sprintf("%s{P%d->D%d ep%d addr%d=%d}", kind, m.Src, m.Dir, m.Ep, m.Addr, m.Val)
}

// CounterexampleKind classifies a violation; lower values are preferred when
// the explorer selects which violation to report.
type CounterexampleKind int

const (
	// CxForbidden is a reachable terminal outcome the test forbids.
	CxForbidden CounterexampleKind = iota
	// CxWindowViolation is a state whose in-flight epochs exceed the wire
	// window.
	CxWindowViolation
	// CxDeadlock is a non-terminal state with no enabled transition.
	CxDeadlock
)

func (k CounterexampleKind) String() string {
	switch k {
	case CxForbidden:
		return "forbidden-outcome"
	case CxWindowViolation:
		return "window-violation"
	case CxDeadlock:
		return "deadlock"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Counterexample is a replay-confirmed violation: the deterministic sequence
// of steps from the initial state to the violating state. The explorer
// selects the violating state canonically (minimal kind, then minimal
// canonical state key), so the reported bad state is identical regardless of
// worker count; Check re-executes the trace through Replay before returning,
// so a reported counterexample is always reproducible.
type Counterexample struct {
	Kind  CounterexampleKind
	Steps []Step
	// Outcome is the forbidden terminal outcome (CxForbidden only).
	Outcome Outcome
	// StateFP fingerprints the violating state's canonical encoding.
	StateFP uint64
}

// ReplayResult is the outcome of re-executing a trace through the core
// rules.
type ReplayResult struct {
	// Terminal reports that the final state is a clean completion; Outcome
	// and Forbidden are then meaningful.
	Terminal  bool
	Forbidden bool
	Outcome   Outcome
	// Deadlock reports a final state that is neither terminal nor able to
	// step.
	Deadlock bool
	// WindowViolated reports that some state along the trace (including the
	// final one) violated the epoch-window invariant.
	WindowViolated bool
	// Fingerprint is core.Hash64 of the final state's canonical encoding.
	Fingerprint uint64
}

// Replay re-executes a step trace from the initial state of (t, cfg) through
// the same core transition rules the explorer used, verifying that every
// step is enabled. It is how counterexamples are confirmed: the trace is
// data, the protocol behaviour is recomputed.
func Replay(t Test, cfg Config, steps []Step) (ReplayResult, error) {
	if err := t.Validate(); err != nil {
		return ReplayResult{}, err
	}
	c := &checker{t: t, cfg: cfg, cp: cfg.cordParams()}
	rr, _, err := c.replay(steps)
	return rr, err
}

// replay is Replay's core, also exposing the final world so confirm can
// compare canonical (symmetry-quotiented) encodings.
func (c *checker) replay(steps []Step) (ReplayResult, *world, error) {
	var rr ReplayResult
	t, cfg := c.t, c.cfg
	w := newWorld(t, cfg)
	if c.windowViolated(w) {
		rr.WindowViolated = true
	}
	for i, st := range steps {
		var next *world
		if st.Deliver {
			idx := -1
			for j := range w.net {
				if w.net[j] == st.Msg {
					idx = j
					break
				}
			}
			if idx < 0 {
				return rr, nil, fmt.Errorf("litmus %s: replay step %d: message %s not in flight",
					t.Name, i, msgString(st.Msg))
			}
			s := w.clone()
			s.net = append(s.net[:idx], s.net[idx+1:]...)
			c.deliver(s, st.Msg)
			next = s
		} else {
			if st.Proc < 0 || st.Proc >= len(w.procs) {
				return rr, nil, fmt.Errorf("litmus %s: replay step %d: processor %d out of range",
					t.Name, i, st.Proc)
			}
			next = c.stepProc(w, st.Proc)
			if next == nil {
				return rr, nil, fmt.Errorf("litmus %s: replay step %d: processor %d cannot step",
					t.Name, i, st.Proc)
			}
		}
		w = next
		if c.windowViolated(w) {
			rr.WindowViolated = true
		}
	}
	rr.Fingerprint = core.Hash64(w.appendKey(nil))
	if len(c.successors(w, nil)) == 0 {
		if c.terminal(w) {
			rr.Terminal = true
			rr.Outcome = c.outcomeOf(w)
			rr.Forbidden = t.Forbidden(rr.Outcome)
		} else {
			rr.Deadlock = true
		}
	}
	return rr, w, nil
}

// node is one explored state's place in the explorer's spanning tree: the
// edge it was first reached through, from its parent state's node by the
// steps in via and then step. A state inside a merged POR chain (expand)
// hangs off the state being expanded, with the chain's earlier steps in via;
// every other state has an empty via. The root's node has no parent. Nodes
// outlive the worlds they describe, so counterexample traces survive world
// recycling.
type node struct {
	parent *node
	via    []Step
	step   Step
}

// trace reconstructs the step sequence from the initial state to n's state
// by walking the parent edges.
func (n *node) trace() []Step {
	k := 0
	for p := n; p.parent != nil; p = p.parent {
		k += len(p.via) + 1
	}
	steps := make([]Step, k)
	for p := n; p.parent != nil; p = p.parent {
		k--
		steps[k] = p.step
		k -= len(p.via)
		copy(steps[k:], p.via)
	}
	return steps
}

// trace is the step sequence from the initial state to w.
func (w *world) trace() []Step {
	w.live("trace")
	return w.edge.trace()
}

// confirm replays a selected counterexample and verifies the violation
// recurs; a failure means the explorer and the rules disagree, which is a
// checker bug worth surfacing loudly. The fingerprint comparison uses the
// checker's canonical encoding: under symmetry the recorded StateFP hashes
// the orbit minimum, and the replayed concrete state must land in that
// orbit (with an empty group this degenerates to the raw encoding).
func (cx *Counterexample) confirm(c *checker) error {
	t := c.t
	rr, final, err := c.replay(cx.Steps)
	if err != nil {
		return fmt.Errorf("counterexample replay: %w", err)
	}
	if fp := core.Hash64(c.key(final, &scratch{})); fp != cx.StateFP {
		return fmt.Errorf("litmus %s: counterexample replayed to a different state (fp %#x, want %#x)",
			t.Name, fp, cx.StateFP)
	}
	switch cx.Kind {
	case CxForbidden:
		if !rr.Terminal || !rr.Forbidden || rr.Outcome != cx.Outcome {
			return fmt.Errorf("litmus %s: forbidden-outcome counterexample did not replay (terminal=%t forbidden=%t)",
				t.Name, rr.Terminal, rr.Forbidden)
		}
	case CxWindowViolation:
		if !rr.WindowViolated {
			return fmt.Errorf("litmus %s: window-violation counterexample did not replay", t.Name)
		}
	case CxDeadlock:
		if !rr.Deadlock {
			return fmt.Errorf("litmus %s: deadlock counterexample did not replay", t.Name)
		}
	}
	return nil
}
