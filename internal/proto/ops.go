// Package proto defines the shared substrate every coherence protocol in
// this repository is built on: the memory-operation stream executed by
// processor cores, the wire-size accounting for protocol messages, the
// processor and directory base engines (program sequencing, acquire-side
// polling, LLC commit), and the run driver that ties a protocol to the
// simulated system.
//
// Individual protocols (CORD, source ordering, message passing, write-back
// MESI, SEQ-N) live in subpackages and plug in via the Builder interface.
package proto

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/sim"
)

// Ordering annotates a memory operation with its release-consistency label
// (§2.2 of the paper). It is one byte so that Op packs to 32 bytes.
type Ordering uint8

const (
	// Relaxed operations carry no ordering constraints.
	Relaxed Ordering = iota
	// Release stores/barriers order all prior accesses before themselves.
	Release
	// Acquire loads/barriers order themselves before all later accesses.
	Acquire
	// SeqCst is a full barrier (used by OpBarrier only).
	SeqCst
)

func (o Ordering) String() string {
	switch o {
	case Relaxed:
		return "rlx"
	case Release:
		return "rel"
	case Acquire:
		return "acq"
	case SeqCst:
		return "sc"
	}
	return fmt.Sprintf("ord(%d)", int(o))
}

// OpKind is the kind of a program operation (one byte, like Ordering).
type OpKind uint8

const (
	// OpCompute models local computation for a fixed cycle count.
	OpCompute OpKind = iota
	// OpStoreWT is a write-through store (Relaxed or Release).
	OpStoreWT
	// OpStoreWB is a write-back store (cached; Relaxed or Release).
	OpStoreWB
	// OpAcquire is an acquire load that spins until the addressed flag
	// reaches at least Value (flags are monotone counters in all workloads).
	OpAcquire
	// OpBarrier is a memory barrier with the given Ordering.
	OpBarrier
	// OpAtomic is a write-through atomic fetch-add executed at the home
	// directory (AMBA CHI-style far atomics; §2.1 "stores or atomics"). The
	// issuing core blocks until the response returns the prior value.
	OpAtomic
)

func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpStoreWT:
		return "store-wt"
	case OpStoreWB:
		return "store-wb"
	case OpAcquire:
		return "acquire"
	case OpBarrier:
		return "barrier"
	case OpAtomic:
		return "atomic"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is a single operation in a core's program. It is 32 bytes: the three
// 8-byte fields first, then Size and the two one-byte fields, so a Table 2
// program of millions of ops stays small (TestOpPacked).
type Op struct {
	Addr   memsys.Addr
	Cycles sim.Time // OpCompute duration
	Value  uint64   // store value, or acquire wait threshold
	Size   int32    // payload bytes for stores, at most MaxStoreBytes
	Kind   OpKind
	Ord    Ordering
}

// MaxStoreBytes bounds a store's payload, and Validate rejects larger
// stores. Every generator emits at most 4096 B; the bound leaves Size's
// int32 room for HeaderBytes and the protocols' per-message overheads, so a
// wire size never wraps.
const MaxStoreBytes = 1 << 20

// opSize converts a constructor's size to Op.Size. A size outside
// [0, MaxStoreBytes] saturates just past that range instead of wrapping, so
// Validate still rejects it.
func opSize(size int) int32 {
	switch {
	case size > MaxStoreBytes:
		return MaxStoreBytes + 1
	case size < 0:
		return -1
	}
	return int32(size)
}

func (o Op) String() string {
	switch o.Kind {
	case OpCompute:
		return fmt.Sprintf("compute(%d)", o.Cycles)
	case OpAcquire:
		return fmt.Sprintf("acquire(%v >= %d)", o.Addr, o.Value)
	case OpBarrier:
		return fmt.Sprintf("barrier(%v)", o.Ord)
	default:
		return fmt.Sprintf("%v.%v(%v, %dB, =%d)", o.Kind, o.Ord, o.Addr, o.Size, o.Value)
	}
}

// Program is the op stream one core executes.
type Program []Op

// Convenience constructors used throughout workloads and tests.

// Compute returns a local-computation op.
func Compute(cycles sim.Time) Op { return Op{Kind: OpCompute, Cycles: cycles} }

// StoreRelaxed returns a Relaxed write-through store.
func StoreRelaxed(a memsys.Addr, size int) Op {
	return Op{Kind: OpStoreWT, Ord: Relaxed, Addr: a, Size: opSize(size)}
}

// StoreRelease returns a Release write-through store of value v.
func StoreRelease(a memsys.Addr, size int, v uint64) Op {
	return Op{Kind: OpStoreWT, Ord: Release, Addr: a, Size: opSize(size), Value: v}
}

// StoreWBRelaxed returns a Relaxed write-back store.
func StoreWBRelaxed(a memsys.Addr, size int) Op {
	return Op{Kind: OpStoreWB, Ord: Relaxed, Addr: a, Size: opSize(size)}
}

// StoreWBRelease returns a Release write-back store of value v.
func StoreWBRelease(a memsys.Addr, size int, v uint64) Op {
	return Op{Kind: OpStoreWB, Ord: Release, Addr: a, Size: opSize(size), Value: v}
}

// AcquireLoad returns an acquire load that waits for *a >= want.
func AcquireLoad(a memsys.Addr, want uint64) Op {
	return Op{Kind: OpAcquire, Ord: Acquire, Addr: a, Value: want}
}

// Barrier returns a memory barrier of the given ordering.
func Barrier(ord Ordering) Op { return Op{Kind: OpBarrier, Ord: ord} }

// FetchAdd returns a write-through atomic fetch-add of `add` on the 8-byte
// word at a, with the given ordering annotation.
func FetchAdd(a memsys.Addr, add uint64, ord Ordering) Op {
	return Op{Kind: OpAtomic, Ord: ord, Addr: a, Size: 8, Value: add}
}

// Stores counts the store operations in a program (relaxed + release).
func (p Program) Stores() (relaxed, release int) {
	for _, op := range p {
		if op.Kind != OpStoreWT && op.Kind != OpStoreWB {
			continue
		}
		if op.Ord == Release {
			release++
		} else {
			relaxed++
		}
	}
	return
}

// Validate reports structural problems in a program: stores of a
// non-positive size or larger than MaxStoreBytes, acquires of 0, etc.
func (p Program) Validate() error {
	for i, op := range p {
		switch op.Kind {
		case OpStoreWT, OpStoreWB:
			if op.Size <= 0 {
				return fmt.Errorf("proto: op %d (%v) has non-positive size", i, op)
			}
			if op.Size > MaxStoreBytes {
				return fmt.Errorf("proto: op %d (%v) stores more than %d bytes", i, op, MaxStoreBytes)
			}
			if op.Ord != Relaxed && op.Ord != Release {
				return fmt.Errorf("proto: op %d (%v) has invalid store ordering", i, op)
			}
		case OpAcquire:
			if op.Value == 0 {
				return fmt.Errorf("proto: op %d (%v) waits for 0, which is always true", i, op)
			}
		case OpAtomic:
			if op.Size != 8 {
				return fmt.Errorf("proto: op %d (%v): atomics operate on 8-byte words", i, op)
			}
		case OpCompute, OpBarrier:
		default:
			return fmt.Errorf("proto: op %d has unknown kind %d", i, int(op.Kind))
		}
	}
	return nil
}
