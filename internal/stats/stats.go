// Package stats collects the metrics the CORD evaluation reports: execution
// time, processor stall breakdowns, interconnect traffic split by message
// class and scope, and protocol-table occupancy peaks.
package stats

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"cord/internal/sim"
)

// MsgClass labels a message for traffic accounting. Classes mirror the
// message taxonomy in the paper: data-carrying write-through stores, control
// acknowledgments, CORD's inter-directory notification pair, loads, and the
// write-back protocol's ownership/forward/writeback messages.
type MsgClass int

const (
	ClassRelaxedData MsgClass = iota // write-through Relaxed store (data)
	ClassReleaseData                 // write-through Release store (data)
	ClassAck                         // directory -> processor acknowledgment
	ClassReqNotify                   // CORD request-for-notification
	ClassNotify                      // CORD inter-directory notification
	ClassLoadReq                     // load / poll request
	ClassLoadResp                    // load response (data)
	ClassOwnReq                      // WB: GetM/GetS ownership request
	ClassOwnData                     // WB: line fill / forwarded data
	ClassWriteback                   // WB: dirty eviction data
	ClassBarrier                     // empty Release barrier stores
	ClassAtomic                      // write-through atomic (far fetch-add)
	ClassAtomicResp                  // atomic response (prior value)
	numClasses
)

// NumClasses is the number of message classes, for packages (observability,
// exporters) that size per-class arrays.
const NumClasses = int(numClasses)

var classNames = [numClasses]string{
	"relaxed-data", "release-data", "ack", "req-notify", "notify",
	"load-req", "load-resp", "own-req", "own-data", "writeback", "barrier",
	"atomic", "atomic-resp",
}

func (c MsgClass) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// IsControl reports whether the class is a pure control message (no useful
// payload data). Source ordering's overhead is exactly its control traffic.
func (c MsgClass) IsControl() bool {
	switch c {
	case ClassAck, ClassReqNotify, ClassNotify, ClassOwnReq, ClassLoadReq:
		return true
	}
	return false
}

// Traffic accumulates bytes by message class, separately for inter-host
// ("inter-PU" in the paper) and intra-host links.
type Traffic struct {
	InterBytes [numClasses]uint64
	IntraBytes [numClasses]uint64
	InterMsgs  [numClasses]uint64
	IntraMsgs  [numClasses]uint64
}

// Add records one message of the given class and size.
func (t *Traffic) Add(class MsgClass, bytes int, interHost bool) {
	if class < 0 || class >= numClasses {
		panic("stats: bad message class")
	}
	if interHost {
		t.InterBytes[class] += uint64(bytes)
		t.InterMsgs[class]++
	} else {
		t.IntraBytes[class] += uint64(bytes)
		t.IntraMsgs[class]++
	}
}

// Merge folds other's counters into t. Traffic is a pure accumulator, so
// per-shard instances merged in any order equal a single shared instance —
// the property the host-partitioned engine relies on.
func (t *Traffic) Merge(other *Traffic) {
	for c := 0; c < NumClasses; c++ {
		t.InterBytes[c] += other.InterBytes[c]
		t.IntraBytes[c] += other.IntraBytes[c]
		t.InterMsgs[c] += other.InterMsgs[c]
		t.IntraMsgs[c] += other.IntraMsgs[c]
	}
}

// TotalInter returns total inter-host bytes, the paper's headline traffic
// metric.
func (t *Traffic) TotalInter() uint64 {
	var s uint64
	for _, b := range t.InterBytes {
		s += b
	}
	return s
}

// TotalIntra returns total intra-host bytes.
func (t *Traffic) TotalIntra() uint64 {
	var s uint64
	for _, b := range t.IntraBytes {
		s += b
	}
	return s
}

// ControlInter returns inter-host bytes carried by pure control messages.
func (t *Traffic) ControlInter() uint64 {
	var s uint64
	for c := MsgClass(0); c < numClasses; c++ {
		if c.IsControl() {
			s += t.InterBytes[c]
		}
	}
	return s
}

// Inter returns inter-host bytes for one class.
func (t *Traffic) Inter(c MsgClass) uint64 { return t.InterBytes[c] }

// String formats non-zero classes, inter-host first.
func (t *Traffic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "inter=%dB intra=%dB", t.TotalInter(), t.TotalIntra())
	for c := MsgClass(0); c < numClasses; c++ {
		if t.InterBytes[c] > 0 {
			fmt.Fprintf(&b, " %s=%dB/%d", c, t.InterBytes[c], t.InterMsgs[c])
		}
	}
	return b.String()
}

// StallKind categorizes processor stall cycles.
type StallKind int

const (
	StallAckWait   StallKind = iota // waiting for write-through acks (SO)
	StallRelease                    // release blocked (ordering or ack)
	StallOverflow                   // CORD: counter/epoch wrap stall
	StallTableFull                  // CORD: bounded-table provisioning stall
	StallAcquire                    // acquire/poll wait
	StallStoreBuf                   // TSO: store buffer full / drain
	numStallKinds
)

// NumStallKinds is the number of stall categories, mirroring NumClasses.
const NumStallKinds = int(numStallKinds)

var stallNames = [numStallKinds]string{
	"ack-wait", "release", "overflow", "table-full", "acquire", "store-buffer",
}

func (k StallKind) String() string {
	if k < 0 || int(k) >= len(stallNames) {
		return fmt.Sprintf("stall(%d)", int(k))
	}
	return stallNames[k]
}

// ProcStats aggregates a single processor core's behaviour.
type ProcStats struct {
	Stall      [numStallKinds]sim.Time
	Ops        uint64 // memory operations issued
	Releases   uint64
	Relaxed    uint64
	Finished   sim.Time // completion time of the core's program
	ComputeCyc sim.Time
	// ReleaseLatency is the issue-to-acknowledgment latency distribution of
	// this core's Release stores (protocols that acknowledge them).
	ReleaseLatency Dist
}

// AddStall accumulates a stall interval.
func (p *ProcStats) AddStall(k StallKind, d sim.Time) {
	if k < 0 || k >= numStallKinds {
		panic("stats: bad stall kind")
	}
	p.Stall[k] += d
}

// TotalStall sums all stall categories.
func (p *ProcStats) TotalStall() sim.Time {
	var s sim.Time
	for _, v := range p.Stall {
		s += v
	}
	return s
}

// Occupancy tracks the live-entry count of a protocol look-up table so the
// storage experiments (Figs. 11 and 12) can report the peak provisioning a
// workload actually needs.
type Occupancy struct {
	name string
	// Instance labels the owning processor or directory, so experiments can
	// report per-instance peaks (Figs. 11-12) as well as aggregates.
	Instance string
	cur      int
	Peak     int
	bytes    int // bytes per entry
}

// NewOccupancy creates a tracker; bytesPerEntry sizes Peak into bytes.
func NewOccupancy(name string, bytesPerEntry int) *Occupancy {
	return &Occupancy{name: name, bytes: bytesPerEntry}
}

// Name returns the table's label.
func (o *Occupancy) Name() string { return o.name }

// Inc records an entry allocation.
func (o *Occupancy) Inc() {
	o.cur++
	if o.cur > o.Peak {
		o.Peak = o.cur
	}
}

// Dec records an entry release.
func (o *Occupancy) Dec() {
	if o.cur == 0 {
		panic("stats: occupancy underflow for " + o.name)
	}
	o.cur--
}

// Set records the live-entry count becoming n, as a run of Inc or Dec
// would.
func (o *Occupancy) Set(n int) {
	o.cur = n
	if n > o.Peak {
		o.Peak = n
	}
}

// Cur returns the current live-entry count.
func (o *Occupancy) Cur() int { return o.cur }

// PeakBytes returns the peak storage in bytes.
func (o *Occupancy) PeakBytes() int { return o.Peak * o.bytes }

// Run is the result of one end-to-end simulation.
type Run struct {
	Time    sim.Time // max core completion time
	Traffic Traffic
	Procs   []ProcStats
	Tables  []*Occupancy
}

// ExecNanos returns end-to-end execution time in nanoseconds.
func (r *Run) ExecNanos() float64 { return sim.Nanos(r.Time) }

// StallFraction returns the fraction of total execution time the average
// core spent stalled on kind k.
func (r *Run) StallFraction(k StallKind) float64 {
	if r.Time == 0 || len(r.Procs) == 0 {
		return 0
	}
	var s sim.Time
	for i := range r.Procs {
		s += r.Procs[i].Stall[k]
	}
	return float64(s) / (float64(r.Time) * float64(len(r.Procs)))
}

// AckTrafficFraction returns the share of inter-host traffic consumed by
// acknowledgment messages — the Fig. 2 metric.
func (r *Run) AckTrafficFraction() float64 {
	tot := r.Traffic.TotalInter()
	if tot == 0 {
		return 0
	}
	return float64(r.Traffic.Inter(ClassAck)) / float64(tot)
}

// TableSummary returns per-table peak bytes sorted by name, aggregated over
// tables that share a name (e.g. one occupancy per directory).
func (r *Run) TableSummary() map[string]int {
	m := make(map[string]int)
	for _, o := range r.Tables {
		m[o.Name()] += o.PeakBytes()
	}
	return m
}

// PeakPerInstance returns the largest per-instance total peak bytes among
// tables whose name starts with prefix — the provisioning a single
// processor ("proc/") or directory ("dir/") actually needs.
func (r *Run) PeakPerInstance(prefix string) int {
	per := make(map[string]int)
	max := 0
	for _, o := range r.Tables {
		if !strings.HasPrefix(o.Name(), prefix) {
			continue
		}
		per[o.Instance] += o.PeakBytes()
		if per[o.Instance] > max {
			max = per[o.Instance]
		}
	}
	return max
}

// PeakPerInstanceByName is PeakPerInstance restricted to one exact table
// name (for storage breakdowns, Fig. 12).
func (r *Run) PeakPerInstanceByName(name string) int {
	per := make(map[string]int)
	max := 0
	for _, o := range r.Tables {
		if o.Name() != name {
			continue
		}
		per[o.Instance] += o.PeakBytes()
		if per[o.Instance] > max {
			max = per[o.Instance]
		}
	}
	return max
}

// FormatTableSummary renders TableSummary deterministically.
func (r *Run) FormatTableSummary() string {
	m := r.TableSummary()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%dB ", k, m[k])
	}
	return strings.TrimSpace(b.String())
}

// Dist is a fixed log-bucketed latency distribution (power-of-two cycle
// buckets up to ~2^31 cycles). It answers count/mean/quantile queries with
// bounded memory, for per-release commit-latency reporting.
type Dist struct {
	buckets [32]uint64
	count   uint64
	sum     uint64
	max     sim.Time
}

func bucketOf(v sim.Time) int {
	b := 0
	for v > 0 && b < 31 {
		v >>= 1
		b++
	}
	return b
}

// Add records one sample.
func (d *Dist) Add(v sim.Time) {
	d.buckets[bucketOf(v)]++
	d.count++
	d.sum += uint64(v)
	if v > d.max {
		d.max = v
	}
}

// Count returns the number of samples.
func (d *Dist) Count() uint64 { return d.count }

// Mean returns the mean sample in cycles.
func (d *Dist) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// Max returns the largest sample.
func (d *Dist) Max() sim.Time { return d.max }

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the top
// of the bucket containing it. Bucket b spans (2^(b-1), 2^b].
func (d *Dist) Quantile(q float64) sim.Time {
	if d.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(d.count))
	if target >= d.count {
		target = d.count - 1
	}
	var seen uint64
	for b, n := range d.buckets {
		seen += n
		if seen > target {
			if b == 0 {
				return 0
			}
			return sim.Time(1) << uint(b)
		}
	}
	return d.max
}

// ForBuckets walks the distribution's log buckets in increasing order, up to
// the highest non-empty one, calling f with each bucket's inclusive upper
// bound in cycles and the cumulative sample count at or below it. Bucket b
// holds samples of bit length b (bucket 0 holds only zero), so the bounds run
// 0, 1, 3, 7, 15, … — the cumulative view Prometheus histogram exposition
// (`_bucket{le=...}`) needs. No-op on an empty distribution.
func (d *Dist) ForBuckets(f func(le sim.Time, cumulative uint64)) {
	if d.count == 0 {
		return
	}
	hi := 0
	for b, n := range d.buckets {
		if n != 0 {
			hi = b
		}
	}
	var cum uint64
	for b := 0; b <= hi; b++ {
		cum += d.buckets[b]
		var le sim.Time
		if b > 0 {
			le = sim.Time(1)<<b - 1
		}
		f(le, cum)
	}
}

// Merge folds other into d.
func (d *Dist) Merge(other *Dist) {
	for i, n := range other.buckets {
		d.buckets[i] += n
	}
	d.count += other.count
	d.sum += other.sum
	if other.max > d.max {
		d.max = other.max
	}
}

// hdistSub is HDist's resolution: each power-of-two octave is split into
// 2^hdistSub linear sub-buckets, bounding relative quantile error by
// 2^-hdistSub (12.5%). Values below 2^(hdistSub+1) are recorded exactly.
const (
	hdistSub     = 3
	hdistExact   = 1 << (hdistSub + 1)                      // 16 exact buckets
	hdistBuckets = hdistExact + (63-hdistSub)*(1<<hdistSub) // 496
)

// HDist is a high-resolution log-linear latency distribution (HDR-histogram
// shape: power-of-two octaves split into 8 linear sub-buckets each, ~12.5%
// worst-case quantile error over the full sim.Time range). The coarser Dist
// is fine for protocol-internal latencies plotted on log axes; service-level
// request tails (p95/p99 on a throughput-latency curve) need sub-octave
// resolution or the hockey stick quantizes into factor-of-two steps.
// The zero value is ready to use; Merge is commutative, so per-core shards
// fold deterministically.
type HDist struct {
	buckets [hdistBuckets]uint64
	count   uint64
	sum     uint64
	max     sim.Time
}

// hbucketOf maps v to its bucket index: exact below hdistExact, then octave
// msb with the next hdistSub bits selecting the linear sub-bucket.
func hbucketOf(v sim.Time) int {
	if v < hdistExact {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(uint64(v)>>(msb-hdistSub)) & (1<<hdistSub - 1)
	return hdistExact + (msb-hdistSub-1)*(1<<hdistSub) + sub
}

// hbucketBounds returns the inclusive value range bucket idx covers.
func hbucketBounds(idx int) (lo, hi sim.Time) {
	if idx < hdistExact {
		return sim.Time(idx), sim.Time(idx)
	}
	rel := idx - hdistExact
	msb := rel/(1<<hdistSub) + hdistSub + 1
	sub := rel % (1 << hdistSub)
	lo = sim.Time(1)<<msb + sim.Time(sub)<<(msb-hdistSub)
	return lo, lo + sim.Time(1)<<(msb-hdistSub) - 1
}

// Add records one sample.
func (d *HDist) Add(v sim.Time) {
	d.buckets[hbucketOf(v)]++
	d.count++
	d.sum += uint64(v)
	if v > d.max {
		d.max = v
	}
}

// Count returns the number of samples.
func (d *HDist) Count() uint64 { return d.count }

// Mean returns the mean sample in cycles.
func (d *HDist) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// Max returns the largest sample.
func (d *HDist) Max() sim.Time { return d.max }

// Quantile returns the q-quantile (q in [0,1]), linearly interpolated within
// the bucket that holds it and capped at the observed max.
func (d *HDist) Quantile(q float64) sim.Time {
	if d.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(d.count))
	if target >= d.count {
		target = d.count - 1
	}
	var seen uint64
	for b, n := range d.buckets {
		if n == 0 {
			continue
		}
		if seen+n > target {
			lo, hi := hbucketBounds(b)
			if hi > d.max {
				hi = d.max
			}
			frac := (float64(target-seen) + 0.5) / float64(n)
			return lo + sim.Time(frac*float64(hi-lo))
		}
		seen += n
	}
	return d.max
}

// ForBuckets walks the non-empty tail of the distribution cumulatively, like
// Dist.ForBuckets but over the log-linear buckets: f sees each occupied
// bucket's inclusive upper bound and the cumulative count at or below it
// (empty buckets are skipped — Prometheus histograms only need monotone
// cumulative pairs, not a dense grid).
func (d *HDist) ForBuckets(f func(le sim.Time, cumulative uint64)) {
	if d.count == 0 {
		return
	}
	var cum uint64
	for b, n := range d.buckets {
		if n == 0 {
			continue
		}
		cum += n
		_, hi := hbucketBounds(b)
		f(hi, cum)
		if cum == d.count {
			return
		}
	}
}

// Merge folds other into d.
func (d *HDist) Merge(other *HDist) {
	for i, n := range other.buckets {
		d.buckets[i] += n
	}
	d.count += other.count
	d.sum += other.sum
	if other.max > d.max {
		d.max = other.max
	}
}
