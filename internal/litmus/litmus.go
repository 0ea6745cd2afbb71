// Package litmus verifies the protocols' memory-consistency behaviour the
// way §4.5 of the paper does with Murphi: exhaustive explicit-state
// exploration of an operational protocol model, bounded to a handful of
// processors, directories, addresses and values.
//
// The checker runs litmus tests (MP, ISA2, WRC, release chains, ...) under
// operational models of CORD (the full Alg. 1/2 state machines including
// epoch windows, counter overflow flushes and bounded tables), source
// ordering, message passing, and the write-back ownership baseline. The
// protocol transition rules themselves live in internal/proto/core and are
// byte-for-byte the rules the simulator adapters execute: this package only
// drives them — it picks which enabled transition fires, applies memory-cell
// effects, and forks the world (DESIGN.md §9). For each test it computes
// every reachable terminal outcome under every interleaving of processor
// steps and (unordered) message deliveries, then checks the test's
// forbidden outcome against the protocol's guarantee:
//
//   - CORD, SO and WB must never reach an outcome release consistency
//     forbids, and must never deadlock;
//   - MP *does* reach the ISA2-class forbidden outcomes when the
//     synchronization chain spans three parties (§3.2, Fig. 3) — the checker
//     demonstrates the violation rather than asserting its absence.
//
// The suite in suite.go instantiates each test shape across directory
// placements and protocol configurations (tiny epoch/counter widths,
// single-entry tables, mixed CORD/SO cores), mirroring the paper's 122
// herd-generated plus 180 customized tests.
package litmus

import (
	"fmt"
	"strconv"

	"cord/internal/proto/core"
)

// Bounds of the model (like the paper's: up to 4 nodes, 4 addresses).
const (
	MaxProcs = 4
	MaxDirs  = 3
	MaxAddrs = 4
	MaxRegs  = 4
)

// Addr is a model address (0..MaxAddrs-1).
type Addr int

// OpKind is a litmus operation kind.
type OpKind int

const (
	// OpSt is a write-through store.
	OpSt OpKind = iota
	// OpLd is a load (reads the address's home directory).
	OpLd
	// OpBar is a memory barrier. Under CORD a Release/SC barrier broadcasts
	// empty directory-ordered Releases and waits for every outstanding
	// acknowledgment (§4.4); under SO it waits for all acks; under MP it is
	// a flushing read to every posted-to destination (the "careful
	// orchestration" §3.2 demands of message-passing programmers).
	OpBar
	// OpAt is a far atomic fetch-add: ordered like the corresponding store
	// under each protocol, committed read-modify-write at the home
	// directory, and blocking the issuer until the old value returns.
	OpAt
)

// Ord is the release-consistency annotation.
type Ord int

const (
	// Rlx is a relaxed access.
	Rlx Ord = iota
	// Rel is a release store.
	Rel
	// Acq is an acquire load.
	Acq
	// SeqCstOrd is a sequentially-consistent barrier.
	SeqCstOrd
)

func (o Ord) String() string {
	switch o {
	case Rel:
		return "rel"
	case Acq:
		return "acq"
	}
	return "rlx"
}

// Op is one litmus operation.
type Op struct {
	Kind OpKind
	Ord  Ord
	Addr Addr
	Val  int // store value
	Reg  int // load destination register
}

func (o Op) String() string {
	switch o.Kind {
	case OpSt:
		return fmt.Sprintf("St.%v %c=%d", o.Ord, 'X'+rune(o.Addr), o.Val)
	case OpBar:
		return fmt.Sprintf("Bar.%v", o.Ord)
	case OpAt:
		return fmt.Sprintf("r%d=FAdd.%v %c+=%d", o.Reg, o.Ord, 'X'+rune(o.Addr), o.Val)
	default:
		return fmt.Sprintf("r%d=Ld.%v %c", o.Reg, o.Ord, 'X'+rune(o.Addr))
	}
}

// St, StRel, Ld, LdAcq and BarRel build operations.
func St(a Addr, v int) Op    { return Op{Kind: OpSt, Ord: Rlx, Addr: a, Val: v} }
func StRel(a Addr, v int) Op { return Op{Kind: OpSt, Ord: Rel, Addr: a, Val: v} }
func Ld(a Addr, r int) Op    { return Op{Kind: OpLd, Ord: Rlx, Addr: a, Reg: r} }
func LdAcq(a Addr, r int) Op { return Op{Kind: OpLd, Ord: Acq, Addr: a, Reg: r} }

// BarRel is a release barrier (a full flush under MP).
func BarRel() Op { return Op{Kind: OpBar, Ord: Rel} }

// FAdd and FAddRel build far atomic fetch-adds; reg receives the old value.
func FAdd(a Addr, add, reg int) Op    { return Op{Kind: OpAt, Ord: Rlx, Addr: a, Val: add, Reg: reg} }
func FAddRel(a Addr, add, reg int) Op { return Op{Kind: OpAt, Ord: Rel, Addr: a, Val: add, Reg: reg} }

// Outcome is a terminal state: every processor's registers plus the final
// memory values.
type Outcome struct {
	Regs [MaxProcs][MaxRegs]int
	Mem  [MaxAddrs]int
}

// String renders the outcome as fmt's "%v|%v" of Regs and Mem, built
// without fmt: fmt's printer pool is per processor, so formatting through it
// would make the model checker's allocation count depend on scheduling and
// on the garbage collector.
func (o Outcome) String() string {
	var buf [128]byte
	b := append(buf[:0], '[')
	for p := range o.Regs {
		if p > 0 {
			b = append(b, ' ')
		}
		b = appendInts(b, o.Regs[p][:])
	}
	b = append(b, "]|"...)
	return string(appendInts(b, o.Mem[:]))
}

// appendInts appends vs as fmt's %v prints an int array: "[1 2 3]".
func appendInts(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// Test is a litmus test: programs, an address placement onto directories,
// and the outcome release consistency forbids.
type Test struct {
	Name  string
	Progs [][]Op
	// Home maps each address to its directory (len >= #addresses used).
	Home []int
	// Forbidden reports whether a terminal outcome violates the test's
	// release-consistency condition.
	Forbidden func(Outcome) bool
	// MustReach, when set, names an outcome that a correct (not
	// over-synchronized) model must be able to produce; it guards against
	// vacuous passes.
	MustReach func(Outcome) bool
}

// Validate checks the test against the model bounds.
func (t Test) Validate() error {
	if len(t.Progs) == 0 || len(t.Progs) > MaxProcs {
		return fmt.Errorf("litmus %s: %d procs out of bounds", t.Name, len(t.Progs))
	}
	maxAddr := -1
	for p, prog := range t.Progs {
		for _, op := range prog {
			if op.Addr < 0 || int(op.Addr) >= MaxAddrs {
				return fmt.Errorf("litmus %s: proc %d address %d out of bounds", t.Name, p, op.Addr)
			}
			if int(op.Addr) > maxAddr {
				maxAddr = int(op.Addr)
			}
			if (op.Kind == OpLd || op.Kind == OpAt) && (op.Reg < 0 || op.Reg >= MaxRegs) {
				return fmt.Errorf("litmus %s: proc %d register %d out of bounds", t.Name, p, op.Reg)
			}
			if op.Kind == OpSt && op.Ord == Acq {
				return fmt.Errorf("litmus %s: acquire store", t.Name)
			}
			if op.Kind == OpLd && op.Ord == Rel {
				return fmt.Errorf("litmus %s: release load", t.Name)
			}
			if op.Kind == OpBar && op.Ord != Rel && op.Ord != SeqCstOrd {
				return fmt.Errorf("litmus %s: only release/sc barriers are modeled", t.Name)
			}
		}
	}
	if len(t.Home) <= maxAddr {
		return fmt.Errorf("litmus %s: placement covers %d addrs, need %d", t.Name, len(t.Home), maxAddr+1)
	}
	for _, d := range t.Home {
		if d < 0 || d >= MaxDirs {
			return fmt.Errorf("litmus %s: directory %d out of bounds", t.Name, d)
		}
	}
	if t.Forbidden == nil {
		return fmt.Errorf("litmus %s: no forbidden predicate", t.Name)
	}
	return nil
}

// ProtoKind selects the protocol model a processor runs.
type ProtoKind int

const (
	// CORDP is the CORD processor model (Alg. 1).
	CORDP ProtoKind = iota
	// SOP is the source-ordering processor model.
	SOP
	// MPP is the message-passing (posted write) processor model.
	MPP
	// WBP is the write-back ownership (MESI-style) processor model.
	WBP
)

func (p ProtoKind) String() string {
	switch p {
	case CORDP:
		return "CORD"
	case SOP:
		return "SO"
	case MPP:
		return "MP"
	case WBP:
		return "WB"
	}
	return fmt.Sprintf("proto(%d)", int(p))
}

// Config is the model configuration: per-processor protocol, wire widths
// and table capacities (the customized-test knobs of §4.5).
type Config struct {
	// Protos assigns a protocol per processor; shorter slices repeat the
	// last entry (so Config{Protos: []ProtoKind{CORDP}} is all-CORD).
	Protos []ProtoKind
	// EpochBits bounds the in-flight epoch window (wire width).
	EpochBits int
	// CntMax is the store-counter saturation point (2^CntBits - 1).
	CntMax int
	// ProcUnackedCap bounds the unacknowledged-epoch table.
	ProcUnackedCap int
	// ProcCntCap bounds the processor's per-directory store-counter table;
	// a relaxed store needing a fresh entry stall-flushes when full
	// (0 = unbounded, which the model size caps at MaxDirs anyway).
	ProcCntCap int
	// DirCapPerProc bounds per-processor directory table shares.
	DirCapPerProc int
	// WBMSHRs bounds outstanding ownership fills for WBP processors
	// (0 = default of 2).
	WBMSHRs int
	// NoNotifications ablates the inter-directory notification mechanism
	// (§4.2), the same switch as core.VariantNoNotifications.
	NoNotifications bool
	// Variants applies core-level ablation switches — the same registry
	// the simulator's cord.Protocol consumes — on top of the scalar knobs.
	Variants []core.Variant
	// MaxStates aborts exploration beyond this many states (0 = default).
	MaxStates int
}

// DefaultConfig is a comfortably provisioned all-CORD configuration.
func DefaultConfig() Config {
	return Config{
		Protos:         []ProtoKind{CORDP},
		EpochBits:      8,
		CntMax:         255,
		ProcUnackedCap: 8,
		ProcCntCap:     8,
		DirCapPerProc:  8,
		WBMSHRs:        2,
	}
}

// TinyConfig stresses every overflow path: 2-bit epochs, store counters
// that saturate at 1, single-entry tables.
func TinyConfig() Config {
	return Config{
		Protos:         []ProtoKind{CORDP},
		EpochBits:      2,
		CntMax:         1,
		ProcUnackedCap: 1,
		ProcCntCap:     1,
		DirCapPerProc:  1,
		WBMSHRs:        1,
	}
}

// protoFor resolves the protocol of processor p.
func (c Config) protoFor(p int) ProtoKind {
	if len(c.Protos) == 0 {
		return CORDP
	}
	if p < len(c.Protos) {
		return c.Protos[p]
	}
	return c.Protos[len(c.Protos)-1]
}

// epochWindow is the number of in-flight epochs the wire width allows.
func (c Config) epochWindow() uint64 {
	if c.EpochBits <= 0 || c.EpochBits > 62 {
		return 1 << 62
	}
	return (uint64(1) << c.EpochBits) - 1
}

// wbMSHRs resolves the WBP MSHR bound.
func (c Config) wbMSHRs() int {
	if c.WBMSHRs <= 0 {
		return 2
	}
	return c.WBMSHRs
}

// cordParams resolves the configuration into the shared core-rule
// parameters, mirroring cord.Config.Params on the simulator side, then
// applies any core-level variant switches.
func (c Config) cordParams() core.CordParams {
	cp := core.CordParams{
		CntMax:            uint64(c.CntMax),
		EpochWindow:       c.epochWindow(),
		ProcUnackedCap:    c.ProcUnackedCap,
		ProcCntCap:        c.ProcCntCap,
		DirCntCapPerProc:  c.DirCapPerProc,
		DirNotiCapPerProc: c.DirCapPerProc,
		NoNotifications:   c.NoNotifications,
	}
	if c.CntMax <= 0 {
		cp.CntMax = 1 << 62 // unconfigured: effectively unbounded
	}
	if cp.ProcCntCap <= 0 {
		cp.ProcCntCap = MaxDirs // unbounded within the model size
	}
	for _, v := range c.Variants {
		v.Apply(&cp)
	}
	return cp
}

// Result is the verdict of exhaustive exploration.
type Result struct {
	Test      Test
	Config    Config
	States    int
	Outcomes  map[string]Outcome // reachable terminal outcomes
	Forbidden bool               // a forbidden outcome is reachable
	Deadlock  bool               // a non-terminal state had no successor
	// Reached reports that the test's MustReach outcome was produced.
	Reached bool
	// WindowViolated reports a state where a processor's in-flight epochs
	// exceeded the wire window — must never happen if the stall logic is
	// correct.
	WindowViolated bool
	// Collisions counts exact-mode fingerprint-collision audit hits: states
	// the fingerprint-only visited set would have wrongly merged. Always 0
	// outside exact mode (collisions are then undetectable — and, at 64
	// bits, vanishingly unlikely; DESIGN.md §10).
	Collisions int
	// PeakFrontier is the high-water mark of enqueued-but-unexpanded states.
	// Unlike States it depends on scheduling — it is a memory-capacity
	// diagnostic, excluded from determinism comparisons.
	PeakFrontier int
	// Counterexample, when a violation was found, is the replay-confirmed
	// step trace to the canonically-selected violating state.
	Counterexample *Counterexample
}

// Pass reports whether a protocol that should enforce release consistency
// passed: no forbidden outcome, no deadlock, no window violation, and (when
// specified) the sanity outcome was reachable.
func (r Result) Pass() bool {
	if r.Forbidden || r.Deadlock || r.WindowViolated {
		return false
	}
	if r.Test.MustReach != nil && !r.Reached {
		return false
	}
	return true
}
