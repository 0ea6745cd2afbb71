// Package memsys defines the simulated system's physical address space and
// the timing of the shared LLC slices and HBM memory behind them.
//
// Addresses are synthetic: workloads compose them from (host, slice, offset)
// so that each communication buffer is explicitly placed on one directory
// slice of one host, exactly like the paper's evaluation workloads (whose
// communication fan-out counts *hosts*, and whose Release stores trigger
// inter-directory notifications only when an epoch spans multiple
// directories).
package memsys

import (
	"fmt"

	"cord/internal/addrtab"
	"cord/internal/noc"
	"cord/internal/sim"
)

// Addr is a physical address in the simulated global address space.
type Addr uint64

// Address layout: | host (16 bits) | slice (8 bits) | offset (32 bits) |.
const (
	offsetBits = 32
	sliceBits  = 8
	hostShift  = offsetBits + sliceBits
	sliceMask  = (1 << sliceBits) - 1
	offsetMask = (1 << offsetBits) - 1
)

// LineBytes is the coherence granularity.
const LineBytes = 64

// Compose builds an address homed on the given host and directory slice.
func Compose(host, slice int, offset uint64) Addr {
	if host < 0 || slice < 0 || slice > sliceMask || offset > offsetMask {
		panic(fmt.Sprintf("memsys: bad address components host=%d slice=%d off=%d", host, slice, offset))
	}
	return Addr(uint64(host)<<hostShift | uint64(slice)<<offsetBits | offset)
}

// Host returns the owning host of an address.
func (a Addr) Host() int { return int(a >> hostShift) }

// Slice returns the owning directory slice of an address.
func (a Addr) Slice() int { return int(a>>offsetBits) & sliceMask }

// Offset returns the within-slice offset.
func (a Addr) Offset() uint64 { return uint64(a) & offsetMask }

// Line returns the address truncated to its cache line.
func (a Addr) Line() Addr { return a &^ (LineBytes - 1) }

func (a Addr) String() string {
	return fmt.Sprintf("h%d.s%d+0x%x", a.Host(), a.Slice(), a.Offset())
}

// Map resolves addresses to their home directory node.
type Map struct {
	Hosts        int
	SlicesPerHst int
}

// NewMap returns an address map for the given system shape.
func NewMap(hosts, slicesPerHost int) *Map {
	if hosts < 1 || slicesPerHost < 1 {
		panic("memsys: map needs at least one host and slice")
	}
	return &Map{Hosts: hosts, SlicesPerHst: slicesPerHost}
}

// HomeOf returns the directory node that owns addr. Slices beyond the
// configured count wrap, so workloads written for 8 slices run on smaller
// systems too.
func (m *Map) HomeOf(a Addr) noc.NodeID {
	h := a.Host()
	if h >= m.Hosts {
		h %= m.Hosts
	}
	return noc.DirID(h, a.Slice()%m.SlicesPerHst)
}

// Timing captures LLC and memory access latencies (Table 1).
type Timing struct {
	// LLCCycles is the shared LLC slice access latency (8 cycles).
	LLCCycles sim.Time
	// DirCycles is the directory look-up/processing latency per message.
	DirCycles sim.Time
	// MemNs is the HBM access latency for LLC misses.
	MemNs float64
}

// DefaultTiming returns the paper's Table 1 cache timing.
func DefaultTiming() Timing {
	return Timing{LLCCycles: 8, DirCycles: 4, MemNs: 40}
}

// CommitLatency is the time for a store arriving at a directory to be
// written into the co-located LLC slice.
func (t Timing) CommitLatency() sim.Time { return t.DirCycles + t.LLCCycles }

// Store is a directory slice's functional LLC contents: the committed word
// of every address homed on the slice that a Relaxed store, Release store,
// far atomic or write-back has reached. Memory values are monotonically
// increasing counters in all workloads, which lets acquire-side polling be
// expressed as "wait until >= N" and commits merge by Max. The cells live
// in a flat open-addressing table (addrtab.Table).
type Store struct {
	cells addrtab.Table
}

// NewStore returns an empty functional memory.
func NewStore() *Store { return &Store{} }

// Write commits value to addr.
func (s *Store) Write(a Addr, v uint64) { s.cells.Write(uint64(a), v) }

// Max raises addr's value to v if v is larger, in one probe: a late older
// store must not regress a counter.
func (s *Store) Max(a Addr, v uint64) { s.cells.Max(uint64(a), v) }

// Read returns the committed value at addr (zero if never written).
func (s *Store) Read(a Addr) uint64 { return s.cells.Read(uint64(a)) }

// Each calls fn for every written cell, in no particular order.
func (s *Store) Each(fn func(a Addr, v uint64)) {
	s.cells.Each(func(a, v uint64) { fn(Addr(a), v) })
}
