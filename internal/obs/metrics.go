package obs

import (
	"encoding/json"
	"io"

	"cord/internal/sim"
	"cord/internal/stats"
)

// Metrics is the observability registry: per-class message/byte counters
// (split intra/inter-host, mirroring stats.Traffic bit-for-bit), per-class
// delivery-latency histograms, per-kind stall accumulation, and occupancy
// peaks for the directory recycle buffers and the engine event queue.
// Unlike the event stream, metrics are never sampled.
type Metrics struct {
	// MsgsIntra/MsgsInter and BytesIntra/BytesInter count every message by
	// class. They must equal stats.Traffic for the same run — a property
	// asserted by TestObservedTrafficMatchesStats.
	MsgsIntra  [stats.NumClasses]uint64
	MsgsInter  [stats.NumClasses]uint64
	BytesIntra [stats.NumClasses]uint64
	BytesInter [stats.NumClasses]uint64

	// Latency holds the source-to-delivery cycle distribution per class.
	Latency [stats.NumClasses]stats.Dist

	// StallCycles/StallCount accumulate processor stalls by kind across all
	// cores.
	StallCycles [stats.NumStallKinds]sim.Time
	StallCount  [stats.NumStallKinds]uint64

	// DirQueuePeak is the largest recycle-buffer depth any directory reached
	// (CORD's network buffer / MP's reorder hold).
	DirQueuePeak int
	// EngineQueuePeak is the deepest the discrete-event queue got.
	EngineQueuePeak int

	// ReqLatency holds service-level request latency per request class
	// (ReqGet/ReqPut), fed by pull-based workload sources via ObserveRequest.
	// High-resolution (log-linear) because the throughput-latency curves the
	// service experiments plot need sub-octave p99 fidelity. Empty unless a
	// service workload ran, so pre-existing exports are unchanged.
	ReqLatency [NumReqKinds]stats.HDist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// --- nil-safe Recorder update methods --------------------------------------
//
// Each updater locks only when ShareMetrics installed a mutex; the common
// single-goroutine path stays branch-and-go.

// CountMsg records one message of class with the given size.
func (r *Recorder) CountMsg(class stats.MsgClass, bytes int, inter bool) {
	if r == nil || r.m == nil {
		return
	}
	if r.mu != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if inter {
		r.m.MsgsInter[class]++
		r.m.BytesInter[class] += uint64(bytes)
	} else {
		r.m.MsgsIntra[class]++
		r.m.BytesIntra[class] += uint64(bytes)
	}
}

// ObserveLatency records one message's source-to-delivery latency.
func (r *Recorder) ObserveLatency(class stats.MsgClass, d sim.Time) {
	if r == nil || r.m == nil {
		return
	}
	if r.mu != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.m.Latency[class].Add(d)
}

// AddStall accumulates one finished processor stall.
func (r *Recorder) AddStall(kind stats.StallKind, d sim.Time) {
	if r == nil || r.m == nil {
		return
	}
	if r.mu != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.m.StallCycles[kind] += d
	r.m.StallCount[kind]++
}

// ObserveRequest records one completed service-level request of the given
// class (ReqGet/ReqPut) with its arrival-to-completion latency.
func (r *Recorder) ObserveRequest(kind int, d sim.Time) {
	if r == nil || r.m == nil {
		return
	}
	if r.mu != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.m.ReqLatency[kind].Add(d)
}

// DirDepth tracks the peak directory recycle-buffer depth.
func (r *Recorder) DirDepth(depth int) {
	if r == nil || r.m == nil {
		return
	}
	if r.mu != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if depth > r.m.DirQueuePeak {
		r.m.DirQueuePeak = depth
	}
}

// EngineDepth tracks the peak event-queue depth.
func (r *Recorder) EngineDepth(depth int) {
	if r == nil || r.m == nil {
		return
	}
	if r.mu != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if depth > r.m.EngineQueuePeak {
		r.m.EngineQueuePeak = depth
	}
}

// Merge folds other into m: counters and stalls sum, latency distributions
// merge, queue peaks take the maximum. Every field is commutative under
// Merge, so per-shard registries folded in any order equal a single shared
// registry.
func (m *Metrics) Merge(other *Metrics) {
	for c := 0; c < stats.NumClasses; c++ {
		m.MsgsIntra[c] += other.MsgsIntra[c]
		m.MsgsInter[c] += other.MsgsInter[c]
		m.BytesIntra[c] += other.BytesIntra[c]
		m.BytesInter[c] += other.BytesInter[c]
		m.Latency[c].Merge(&other.Latency[c])
	}
	for k := 0; k < stats.NumStallKinds; k++ {
		m.StallCycles[k] += other.StallCycles[k]
		m.StallCount[k] += other.StallCount[k]
	}
	if other.DirQueuePeak > m.DirQueuePeak {
		m.DirQueuePeak = other.DirQueuePeak
	}
	if other.EngineQueuePeak > m.EngineQueuePeak {
		m.EngineQueuePeak = other.EngineQueuePeak
	}
	for k := 0; k < NumReqKinds; k++ {
		m.ReqLatency[k].Merge(&other.ReqLatency[k])
	}
}

// TotalBytes sums both scopes for one class (the figure stats.Traffic
// reports as Inter+Intra).
func (m *Metrics) TotalBytes(c stats.MsgClass) uint64 {
	return m.BytesIntra[c] + m.BytesInter[c]
}

// --- JSON export -----------------------------------------------------------

// classJSON is one class's exported row.
type classJSON struct {
	Class      string  `json:"class"`
	MsgsIntra  uint64  `json:"msgs_intra"`
	MsgsInter  uint64  `json:"msgs_inter"`
	BytesIntra uint64  `json:"bytes_intra"`
	BytesInter uint64  `json:"bytes_inter"`
	LatMeanCyc float64 `json:"latency_mean_cycles"`
	LatP50Cyc  uint64  `json:"latency_p50_cycles"`
	LatP95Cyc  uint64  `json:"latency_p95_cycles"`
	LatP99Cyc  uint64  `json:"latency_p99_cycles"`
	LatMaxCyc  uint64  `json:"latency_max_cycles"`
}

type stallJSON struct {
	Kind   string `json:"kind"`
	Cycles uint64 `json:"cycles"`
	Count  uint64 `json:"count"`
}

// requestJSON is one request class's exported row (service workloads only).
type requestJSON struct {
	Kind       string  `json:"kind"`
	Count      uint64  `json:"count"`
	LatMeanCyc float64 `json:"latency_mean_cycles"`
	LatP50Cyc  uint64  `json:"latency_p50_cycles"`
	LatP95Cyc  uint64  `json:"latency_p95_cycles"`
	LatP99Cyc  uint64  `json:"latency_p99_cycles"`
	LatMaxCyc  uint64  `json:"latency_max_cycles"`
}

type metricsJSON struct {
	Classes         []classJSON   `json:"classes"`
	Stalls          []stallJSON   `json:"stalls"`
	Requests        []requestJSON `json:"requests,omitempty"`
	DirQueuePeak    int           `json:"dir_queue_peak"`
	EngineQueuePeak int           `json:"engine_queue_peak"`
}

// Doc returns the registry as the plain-data document the JSON export and
// the live introspection server's expvar endpoint share. Classes and stall
// kinds with no activity are omitted.
func (m *Metrics) Doc() any {
	out := metricsJSON{
		DirQueuePeak:    m.DirQueuePeak,
		EngineQueuePeak: m.EngineQueuePeak,
	}
	for c := 0; c < stats.NumClasses; c++ {
		if m.MsgsIntra[c] == 0 && m.MsgsInter[c] == 0 {
			continue
		}
		d := &m.Latency[c]
		out.Classes = append(out.Classes, classJSON{
			Class:      stats.MsgClass(c).String(),
			MsgsIntra:  m.MsgsIntra[c],
			MsgsInter:  m.MsgsInter[c],
			BytesIntra: m.BytesIntra[c],
			BytesInter: m.BytesInter[c],
			LatMeanCyc: d.Mean(),
			LatP50Cyc:  uint64(d.Quantile(0.5)),
			LatP95Cyc:  uint64(d.Quantile(0.95)),
			LatP99Cyc:  uint64(d.Quantile(0.99)),
			LatMaxCyc:  uint64(d.Max()),
		})
	}
	for k := 0; k < stats.NumStallKinds; k++ {
		if m.StallCount[k] == 0 {
			continue
		}
		out.Stalls = append(out.Stalls, stallJSON{
			Kind:   stats.StallKind(k).String(),
			Cycles: uint64(m.StallCycles[k]),
			Count:  m.StallCount[k],
		})
	}
	for k := 0; k < NumReqKinds; k++ {
		d := &m.ReqLatency[k]
		if d.Count() == 0 {
			continue
		}
		out.Requests = append(out.Requests, requestJSON{
			Kind:       ReqKindName(k),
			Count:      d.Count(),
			LatMeanCyc: d.Mean(),
			LatP50Cyc:  uint64(d.Quantile(0.5)),
			LatP95Cyc:  uint64(d.Quantile(0.95)),
			LatP99Cyc:  uint64(d.Quantile(0.99)),
			LatMaxCyc:  uint64(d.Max()),
		})
	}
	return out
}

// WriteJSON renders the registry as a single indented JSON document.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Doc())
}
