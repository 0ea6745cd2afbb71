// Package sim provides the deterministic discrete-event simulation kernel
// that the CORD coherence simulator is built on.
//
// The kernel is intentionally tiny: a time-ordered event queue, a clock
// measured in cycles, and a seeded PRNG. Determinism is load-bearing for the
// whole repository — every experiment and test must produce identical results
// for identical seeds — so events that fire at the same cycle are ordered by
// their scheduling sequence number.
//
// The queue is a two-level structure tuned for zero steady-state allocation
// (see DESIGN.md §8 for the full layout and determinism argument):
//
//   - a timing wheel of per-cycle FIFO buckets covers the near horizon
//     (events within wheelSize cycles of now — every mesh hop, commit
//     latency, and serialization delay in the simulated system), making
//     schedule and pop O(1); within one cycle, FIFO order is exactly
//     scheduling-sequence order, so the (at, seq) total order is preserved
//     by construction;
//   - a value-typed 4-ary min-heap of 24-byte (at, seq, slot) keys holds
//     far-future events and migrates them into the wheel as the clock
//     advances, before any same-cycle event can be scheduled behind them.
//
// Event bodies live in a slab recycled through a free list; no per-event
// heap allocation, no interface boxing, nothing for the garbage collector
// to chase.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is a simulation timestamp in cycles.
type Time uint64

// Cycle durations are expressed relative to the core clock. The simulated
// system runs a 2 GHz clock, so one cycle is 0.5 ns. Helpers below convert
// between wall-clock nanoseconds and cycles.
const (
	// CyclesPerNano is the number of core cycles per nanosecond (2 GHz).
	CyclesPerNano = 2
)

// FromNanos converts a duration in nanoseconds to cycles.
func FromNanos(ns float64) Time {
	if ns <= 0 {
		return 0
	}
	return Time(ns*CyclesPerNano + 0.5)
}

// Nanos converts a cycle count back to nanoseconds.
func Nanos(t Time) float64 {
	return float64(t) / CyclesPerNano
}

// DeliverFunc is a monomorphic delivery callback: a message handler invoked
// with the packed source node word and the message payload. The NoC
// registers one DeliverFunc per node and schedules deliveries with
// ScheduleDeliver, so the hot send path stores three words in the event
// slot instead of allocating a fresh closure per message.
type DeliverFunc func(src uint64, payload any)

// Timing-wheel geometry: wheelSize consecutive cycles of FIFO buckets. 512
// cycles comfortably covers the simulator's largest single delay (the 300
// cycle CXL inter-host traversal plus serialization); longer delays take the
// overflow heap.
const (
	wheelBits = 9
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// entry is one overflow-heap element: the (at, seq) ordering key plus the
// index of the event's body in the slot slab. Keeping entries to 24 bytes
// (no pointers) makes sift moves and the 4-child min scans cheap; event
// bodies never move once written.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// slot is an event body: exactly one of fn / deliver is set. fn is the
// general closure form, deliver+src+payload the allocation-free delivery
// form. next chains slots into a wheel bucket's FIFO list.
type slot struct {
	fn      func()
	deliver DeliverFunc
	src     uint64
	payload any
	next    int32
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// Timing wheel: per-cycle FIFO chains of slot indices for events with
	// at in [wheelTime, wheelTime+wheelSize). occupied is the non-empty
	// bucket bitmap; nearCount the number of bucketed events. Outside pop,
	// wheelTime == now.
	wheelTime  Time
	nearCount  int
	bucketHead [wheelSize]int32
	bucketTail [wheelSize]int32
	occupied   [wheelSize / 64]uint64

	heap  []entry // far events, value-typed 4-ary min-heap on (at, seq)
	slots []slot  // event bodies, indexed by entry.idx / bucket chains
	free  []int32 // recycled slot indices

	// Executed counts events that have fired, used by tests and as a
	// runaway-simulation guard.
	executed uint64
	// MaxEvents aborts Run with an error when positive and exceeded.
	MaxEvents uint64

	// hook, when set, observes every executed event (observability layer).
	hook func(now Time, pending int)
}

// NewEngine returns an engine whose PRNG is seeded with seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	for i := range e.bucketHead {
		e.bucketHead[i] = -1
		e.bucketTail[i] = -1
	}
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed returns the number of events that have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// allocSlot returns a free slab index, growing the slab only when the free
// list is empty (i.e. only until the queue reaches its high-water mark).
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// enqueue routes slot idx to the wheel (near events) or the overflow heap.
// at must be >= e.now; callers in the firing path always have
// e.wheelTime == e.now (see pop).
func (e *Engine) enqueue(at Time, idx int32) {
	e.seq++
	if at-e.wheelTime < wheelSize {
		b := int(at) & wheelMask
		e.slots[idx].next = -1
		if tail := e.bucketTail[b]; tail >= 0 {
			e.slots[tail].next = idx
		} else {
			e.bucketHead[b] = idx
			e.occupied[b>>6] |= 1 << (uint(b) & 63)
		}
		e.bucketTail[b] = idx
		e.nearCount++
		return
	}
	e.heapPush(entry{at: at, seq: e.seq, idx: idx})
}

// --- overflow heap: value-typed 4-ary min-heap ------------------------------
//
// A 4-ary heap halves the tree depth of the classic binary heap, trading a
// wider min-of-children scan on the way down for half the sift-up
// comparisons on the way in. Children of slot i live at 4i+1..4i+4.

// heapPush appends en and restores the heap property by sifting up.
func (e *Engine) heapPush(en entry) {
	h := append(e.heap, en)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < en.at || (h[p].at == en.at && h[p].seq < en.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
	e.heap = h
}

// heapPop removes and returns the minimum entry, sifting the displaced tail
// entry down from the root. The min-child scan keeps the running minimum's
// key in registers so each child costs one load pair and one compare.
func (e *Engine) heapPop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n > 0 {
		lat, lseq := last.at, last.seq
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			// m = index of the smallest of up to four children, tracked in
			// registers (mat, mseq).
			m := c
			mat, mseq := h[c].at, h[c].seq
			hi := c + 4
			if hi > n {
				hi = n
			}
			for k := c + 1; k < hi; k++ {
				kat, kseq := h[k].at, h[k].seq
				if kat < mat || (kat == mat && kseq < mseq) {
					m, mat, mseq = k, kat, kseq
				}
			}
			if !(mat < lat || (mat == lat && mseq < lseq)) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// drain migrates heap events that have entered the wheel horizon. Entries
// leave the heap in (at, seq) order and are appended to their buckets, and
// any event scheduled later for the same cycle carries a larger sequence
// number and lands behind them — so FIFO bucket order remains (at, seq)
// order. Migration runs whenever wheelTime advances, before any event at the
// new time fires, which is what makes that append-order argument airtight.
func (e *Engine) drain() {
	limit := e.wheelTime + wheelSize
	for len(e.heap) > 0 && e.heap[0].at < limit {
		en := e.heapPop()
		b := int(en.at) & wheelMask
		e.slots[en.idx].next = -1
		if tail := e.bucketTail[b]; tail >= 0 {
			e.slots[tail].next = en.idx
		} else {
			e.bucketHead[b] = en.idx
			e.occupied[b>>6] |= 1 << (uint(b) & 63)
		}
		e.bucketTail[b] = en.idx
		e.nearCount++
	}
}

// scan returns the bucket index of the earliest non-empty bucket, searching
// circularly from wheelTime's bucket. Bucket times live in
// [wheelTime, wheelTime+wheelSize), so circular order from wheelTime&mask is
// time order. Must only be called with nearCount > 0.
func (e *Engine) scan() int {
	start := int(e.wheelTime) & wheelMask
	w := start >> 6
	// Mask off bits below start in the first word.
	word := e.occupied[w] &^ (1<<(uint(start)&63) - 1)
	for i := 0; ; i++ {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w = (w + 1) & (wheelSize/64 - 1)
		word = e.occupied[w]
		if i >= wheelSize/64 {
			panic("sim: scan with empty wheel")
		}
	}
}

// bucketTime reconstructs the absolute cycle of bucket b relative to
// wheelTime.
func (e *Engine) bucketTime(b int) Time {
	d := (b - int(e.wheelTime) + wheelSize) & wheelMask
	return e.wheelTime + Time(d)
}

// peek returns the timestamp of the earliest queued event without mutating
// any state. Must only be called with Pending() > 0.
func (e *Engine) peek() Time {
	if e.nearCount > 0 {
		return e.bucketTime(e.scan())
	}
	return e.heap[0].at
}

// pop removes and returns the earliest event's (at, slot). When the wheel is
// empty it first jumps the wheel to the heap's earliest timestamp and
// migrates the new horizon — the returned event is then that minimum, and
// Run advances now to it before anything else can observe the clock.
func (e *Engine) pop() (Time, int32) {
	if e.nearCount == 0 {
		e.wheelTime = e.heap[0].at
		e.drain()
	}
	b := e.scan()
	idx := e.bucketHead[b]
	next := e.slots[idx].next
	e.bucketHead[b] = next
	if next < 0 {
		e.bucketTail[b] = -1
		e.occupied[b>>6] &^= 1 << (uint(b) & 63)
	}
	e.nearCount--
	return e.bucketTime(b), idx
}

// Schedule runs fn after delay cycles. A zero delay fires in the current
// cycle, after all previously scheduled events for this cycle.
func (e *Engine) Schedule(delay Time, fn func()) { e.ScheduleAt(e.now+delay, fn) }

// ScheduleAt runs fn at absolute time at. Scheduling in the past is an
// implementation bug, so it panics.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) before now (%d)", at, e.now))
	}
	idx := e.allocSlot()
	e.slots[idx].fn = fn
	e.enqueue(at, idx)
}

// ScheduleDeliver runs fn(src, payload) after delay cycles. It is the
// monomorphic counterpart of Schedule for message delivery: the callback,
// source word, and payload ride in the event slot itself, so scheduling a
// delivery performs no allocation (fn is a long-lived per-node handler and
// payload is already an interface at the call site).
func (e *Engine) ScheduleDeliver(delay Time, fn DeliverFunc, src uint64, payload any) {
	e.ScheduleDeliverAt(e.now+delay, fn, src, payload)
}

// ScheduleDeliverAt is ScheduleDeliver at an absolute time: the cluster
// scheduler uses it to inject cross-shard message arrivals at the timestamp
// the source shard computed. Like ScheduleAt, scheduling in the past panics.
func (e *Engine) ScheduleDeliverAt(at Time, fn DeliverFunc, src uint64, payload any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleDeliverAt(%d) before now (%d)", at, e.now))
	}
	idx := e.allocSlot()
	s := &e.slots[idx]
	s.deliver = fn
	s.src = src
	s.payload = payload
	e.enqueue(at, idx)
}

// NextAt returns the timestamp of the earliest queued event, or false when
// the queue is empty. The cluster scheduler uses it to compute the global
// minimum next-event time that anchors each conservative window.
func (e *Engine) NextAt() (Time, bool) {
	if e.nearCount+len(e.heap) == 0 {
		return 0, false
	}
	return e.peek(), true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetHook installs an observer invoked before each executed event with the
// current time and the number of still-queued events. Pass nil to disable.
// The hook must not schedule or mutate engine state; it exists so the
// observability layer can track clock advancement and queue occupancy.
func (e *Engine) SetHook(fn func(now Time, pending int)) { e.hook = fn }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.nearCount + len(e.heap) }

// fire copies the popped event's body out of its slot, recycles the slot,
// and invokes the callback. Copy-then-free ordering matters: the callback
// may schedule new events that immediately reuse the slot.
func (e *Engine) fire(idx int32) {
	s := &e.slots[idx]
	fn, deliver, src, payload := s.fn, s.deliver, s.src, s.payload
	s.fn = nil
	s.deliver = nil
	s.payload = nil // release references
	e.free = append(e.free, idx)
	if fn != nil {
		fn()
		return
	}
	deliver(src, payload)
}

// advance moves the clock (and the wheel with it) to at, migrating
// newly-near heap events before anything at the new time can fire.
func (e *Engine) advance(at Time) {
	if at < e.now {
		panic("sim: event queue went backwards")
	}
	e.now = at
	e.wheelTime = at
	if len(e.heap) > 0 && e.heap[0].at < at+wheelSize {
		e.drain()
	}
}

// Run executes events until the queue drains, Stop is called, or MaxEvents
// is exceeded. It returns an error only on the event-budget guard; a drained
// queue is the normal termination condition.
func (e *Engine) Run() error {
	e.stopped = false
	for e.nearCount+len(e.heap) > 0 && !e.stopped {
		at, idx := e.pop()
		e.advance(at)
		e.executed++
		if e.MaxEvents > 0 && e.executed > e.MaxEvents {
			return fmt.Errorf("sim: exceeded event budget of %d at t=%d", e.MaxEvents, e.now)
		}
		if e.hook != nil {
			e.hook(e.now, e.Pending())
		}
		e.fire(idx)
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued, and advances the clock to deadline if the queue drains early.
func (e *Engine) RunUntil(deadline Time) error {
	e.stopped = false
	for e.nearCount+len(e.heap) > 0 && !e.stopped {
		if e.peek() > deadline {
			break
		}
		at, idx := e.pop()
		e.advance(at)
		e.executed++
		if e.MaxEvents > 0 && e.executed > e.MaxEvents {
			return fmt.Errorf("sim: exceeded event budget of %d at t=%d", e.MaxEvents, e.now)
		}
		if e.hook != nil {
			e.hook(e.now, e.Pending())
		}
		e.fire(idx)
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}
