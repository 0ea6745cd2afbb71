package live

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"cord/internal/obs"
	rt "cord/internal/obs/runtime"
	"cord/internal/sim"
	"cord/internal/stats"
)

// Server is the live introspection endpoint attached by cordsim/cordbench
// -http: it serves
//
//	/metrics      Prometheus text exposition of the obs metrics registry
//	              (per-class message/byte counters, latency summaries with
//	              p50/p95/p99, stall totals, queue peaks) plus sweep progress
//	/progress     the progress Snapshot as JSON
//	/runtime      simulator-runtime telemetry Report as JSON (when a
//	              collector is attached via SetRuntime; cord_sim_* families
//	              also join /metrics)
//	/debug/vars   expvar (the same registry document as metrics-out JSON)
//	/debug/pprof  the standard Go profiler endpoints
//
// The recorder may be nil (no metrics, progress only); call
// Recorder.ShareMetrics before attaching a recorder a simulation is still
// writing to.
type Server struct {
	rec  *obs.Recorder
	prog *Progress
	info map[string]string
	rt   atomic.Pointer[rt.Collector]

	srv *http.Server
	lis net.Listener
}

// SetRuntime attaches a simulator-runtime telemetry collector: /runtime
// serves its Report snapshot as JSON and /metrics gains the cord_sim_*
// families (per-shard busy/idle/barrier wall time, outbox census, live
// efficiency). Safe to call while serving; nil detaches.
func (s *Server) SetRuntime(col *rt.Collector) { s.rt.Store(col) }

// active is the server expvar reads through: expvar.Publish is global and
// permanent, so the package publishes one "cord" Func that always follows
// the most recently constructed server (tests construct several).
var (
	active     atomic.Pointer[Server]
	expvarOnce sync.Once
)

// NewServer listens on addr (e.g. "localhost:6060"; an empty port picks a
// free one) and prepares — but does not start — the handler. info labels the
// run (workload, protocol, fabric) in /metrics and /debug/vars.
func NewServer(addr string, rec *obs.Recorder, prog *Progress, info map[string]string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	s := &Server{rec: rec, prog: prog, info: info, lis: lis}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/runtime", s.handleRuntime)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	active.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("cord", expvar.Func(func() any {
			cur := active.Load()
			if cur == nil {
				return nil
			}
			return cur.expvarDoc()
		}))
	})
	return s, nil
}

// Addr returns the bound address, for "listening on http://…" messages.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Start serves in a background goroutine until Close.
func (s *Server) Start() {
	go s.srv.Serve(s.lis)
}

// Close stops the listener and handler.
func (s *Server) Close() error {
	if active.Load() == s {
		active.Store(nil)
	}
	return s.srv.Close()
}

func (s *Server) expvarDoc() any {
	doc := map[string]any{}
	if s.rec.Enabled() {
		m := s.rec.MetricsSnapshot()
		doc["metrics"] = m.Doc()
	}
	if s.prog != nil {
		doc["progress"] = s.prog.Snapshot()
	}
	if len(s.info) > 0 {
		doc["info"] = s.info
	}
	return doc
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "cord live introspection\n\n"+
		"/metrics      Prometheus text metrics + sweep progress\n"+
		"/progress     progress snapshot (JSON)\n"+
		"/runtime      simulator-runtime telemetry report (JSON)\n"+
		"/debug/vars   expvar registry\n"+
		"/debug/pprof  Go profiler\n")
}

func (s *Server) handleRuntime(w http.ResponseWriter, _ *http.Request) {
	col := s.rt.Load()
	if col == nil {
		http.Error(w, "no runtime collector attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	col.Snapshot().WriteJSON(w)
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var snap Snapshot
	if s.prog != nil {
		snap = s.prog.Snapshot()
	}
	json.NewEncoder(w).Encode(snap)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if len(s.info) > 0 {
		keys := make([]string, 0, len(s.info))
		for k := range s.info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "# TYPE cord_info gauge\ncord_info{")
		for i, k := range keys {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", k, s.info[k])
		}
		fmt.Fprint(w, "} 1\n")
	}
	if s.rec.Enabled() {
		m := s.rec.MetricsSnapshot()
		writePrometheus(w, &m)
	}
	if col := s.rt.Load(); col != nil {
		writeRuntimePrometheus(w, col.Snapshot())
	}
	if s.prog != nil {
		snap := s.prog.Snapshot()
		fmt.Fprintf(w, "# TYPE cord_progress_done gauge\ncord_progress_done %d\n", snap.Done)
		fmt.Fprintf(w, "# TYPE cord_progress_total gauge\ncord_progress_total %d\n", snap.Total)
		fmt.Fprintf(w, "# TYPE cord_progress_elapsed_seconds gauge\ncord_progress_elapsed_seconds %.3f\n", snap.Elapsed)
		fmt.Fprintf(w, "# TYPE cord_progress_eta_seconds gauge\ncord_progress_eta_seconds %.3f\n", snap.ETA)
	}
}

// writePrometheus renders the registry in the Prometheus text exposition
// format, hand-rolled like the repo's other exporters (no dependencies).
// Latency distributions export as summaries with p50/p95/p99 quantiles.
func writePrometheus(w http.ResponseWriter, m *obs.Metrics) {
	scoped := func(name, help string, vals func(c int) (intra, inter uint64)) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for c := 0; c < stats.NumClasses; c++ {
			intra, inter := vals(c)
			if intra == 0 && inter == 0 {
				continue
			}
			class := stats.MsgClass(c).String()
			fmt.Fprintf(w, "%s{class=%q,scope=\"intra\"} %d\n", name, class, intra)
			fmt.Fprintf(w, "%s{class=%q,scope=\"inter\"} %d\n", name, class, inter)
		}
	}
	scoped("cord_msgs_total", "messages by class and host scope",
		func(c int) (uint64, uint64) { return m.MsgsIntra[c], m.MsgsInter[c] })
	scoped("cord_bytes_total", "wire bytes by class and host scope",
		func(c int) (uint64, uint64) { return m.BytesIntra[c], m.BytesInter[c] })

	fmt.Fprint(w, "# HELP cord_msg_latency_cycles source-to-delivery latency by class\n"+
		"# TYPE cord_msg_latency_cycles summary\n")
	for c := 0; c < stats.NumClasses; c++ {
		d := &m.Latency[c]
		if d.Count() == 0 {
			continue
		}
		class := stats.MsgClass(c).String()
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "cord_msg_latency_cycles{class=%q,quantile=\"%g\"} %d\n",
				class, q, uint64(d.Quantile(q)))
		}
		fmt.Fprintf(w, "cord_msg_latency_cycles_sum{class=%q} %.0f\n", class, d.Mean()*float64(d.Count()))
		fmt.Fprintf(w, "cord_msg_latency_cycles_count{class=%q} %d\n", class, d.Count())
	}

	// Cumulative histogram buckets alongside the summary: the summary's
	// quantiles are pre-computed per instance, the buckets let PromQL
	// aggregate across runs (histogram_quantile over the le label). Exported
	// as an explicitly-typed counter family — a single family cannot be both
	// summary and histogram in the exposition format.
	fmt.Fprint(w, "# HELP cord_msg_latency_cycles_bucket cumulative latency histogram "+
		"(log2 buckets; use histogram_quantile over le)\n"+
		"# TYPE cord_msg_latency_cycles_bucket counter\n")
	for c := 0; c < stats.NumClasses; c++ {
		d := &m.Latency[c]
		if d.Count() == 0 {
			continue
		}
		class := stats.MsgClass(c).String()
		d.ForBuckets(func(le sim.Time, cum uint64) {
			fmt.Fprintf(w, "cord_msg_latency_cycles_bucket{class=%q,le=\"%d\"} %d\n",
				class, uint64(le), cum)
		})
		fmt.Fprintf(w, "cord_msg_latency_cycles_bucket{class=%q,le=\"+Inf\"} %d\n",
			class, d.Count())
	}

	fmt.Fprint(w, "# HELP cord_stall_cycles_total processor stall cycles by kind\n"+
		"# TYPE cord_stall_cycles_total counter\n")
	for k := 0; k < stats.NumStallKinds; k++ {
		if m.StallCount[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "cord_stall_cycles_total{kind=%q} %d\n",
			stats.StallKind(k), uint64(m.StallCycles[k]))
	}
	fmt.Fprint(w, "# HELP cord_stalls_total finished processor stalls by kind\n"+
		"# TYPE cord_stalls_total counter\n")
	for k := 0; k < stats.NumStallKinds; k++ {
		if m.StallCount[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "cord_stalls_total{kind=%q} %d\n", stats.StallKind(k), m.StallCount[k])
	}
	fmt.Fprintf(w, "# TYPE cord_dir_queue_peak gauge\ncord_dir_queue_peak %d\n", m.DirQueuePeak)
	fmt.Fprintf(w, "# TYPE cord_engine_queue_peak gauge\ncord_engine_queue_peak %d\n", m.EngineQueuePeak)

	// Service-level request latency (pull-based workload sources). Families
	// appear only when a service workload ran, so scrapes of pure trace
	// replays are unchanged.
	anyReq := false
	for k := 0; k < obs.NumReqKinds; k++ {
		if m.ReqLatency[k].Count() > 0 {
			anyReq = true
		}
	}
	if !anyReq {
		return
	}
	fmt.Fprint(w, "# HELP cord_request_latency_cycles service request arrival-to-completion latency\n"+
		"# TYPE cord_request_latency_cycles summary\n")
	for k := 0; k < obs.NumReqKinds; k++ {
		d := &m.ReqLatency[k]
		if d.Count() == 0 {
			continue
		}
		op := obs.ReqKindName(k)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "cord_request_latency_cycles{op=%q,quantile=\"%g\"} %d\n",
				op, q, uint64(d.Quantile(q)))
		}
		fmt.Fprintf(w, "cord_request_latency_cycles_sum{op=%q} %.0f\n", op, d.Mean()*float64(d.Count()))
		fmt.Fprintf(w, "cord_request_latency_cycles_count{op=%q} %d\n", op, d.Count())
	}
	fmt.Fprint(w, "# HELP cord_request_latency_cycles_bucket cumulative request latency histogram "+
		"(log-linear buckets; use histogram_quantile over le)\n"+
		"# TYPE cord_request_latency_cycles_bucket counter\n")
	for k := 0; k < obs.NumReqKinds; k++ {
		d := &m.ReqLatency[k]
		if d.Count() == 0 {
			continue
		}
		op := obs.ReqKindName(k)
		d.ForBuckets(func(le sim.Time, cum uint64) {
			fmt.Fprintf(w, "cord_request_latency_cycles_bucket{op=%q,le=\"%d\"} %d\n",
				op, uint64(le), cum)
		})
		fmt.Fprintf(w, "cord_request_latency_cycles_bucket{op=%q,le=\"+Inf\"} %d\n",
			op, d.Count())
	}
}

// writeRuntimePrometheus renders the simulator-runtime telemetry families.
// These describe the simulator process itself (wall-clock, non-deterministic)
// and are namespaced cord_sim_* to keep them apart from the simulated-machine
// metrics above.
func writeRuntimePrometheus(w http.ResponseWriter, r *rt.Report) {
	fmt.Fprintf(w, "# TYPE cord_sim_windows_total counter\ncord_sim_windows_total %d\n", r.Totals.Windows)
	fmt.Fprintf(w, "# TYPE cord_sim_events_total counter\ncord_sim_events_total %d\n", r.Totals.Events)
	fmt.Fprintf(w, "# TYPE cord_sim_window_wall_ns_total counter\ncord_sim_window_wall_ns_total %d\n", r.Totals.WallNs)
	fmt.Fprintf(w, "# TYPE cord_sim_flush_ns_total counter\ncord_sim_flush_ns_total %d\n", r.Totals.FlushNs)

	shardFam := func(name, help string, val func(t *rt.ShardTotals) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i := range r.PerShard {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, r.PerShard[i].Shard, val(&r.PerShard[i]))
		}
	}
	shardFam("cord_sim_shard_busy_ns", "wall ns the shard spent executing events",
		func(t *rt.ShardTotals) uint64 { return t.BusyNs })
	shardFam("cord_sim_shard_idle_ns", "wall ns the shard waited for earlier shards in its window",
		func(t *rt.ShardTotals) uint64 { return t.IdleNs })
	shardFam("cord_sim_shard_barrier_ns", "wall ns the shard waited for later shards in its window",
		func(t *rt.ShardTotals) uint64 { return t.BarrierNs })
	shardFam("cord_sim_shard_events_total", "events the shard executed",
		func(t *rt.ShardTotals) uint64 { return t.Events })

	fmt.Fprintf(w, "# TYPE cord_sim_outbox_injected_total counter\ncord_sim_outbox_injected_total %d\n", r.Totals.Injected)
	fmt.Fprintf(w, "# TYPE cord_sim_outbox_merged_bytes_total counter\ncord_sim_outbox_merged_bytes_total %d\n", r.Totals.MergedBytes)
	fmt.Fprintf(w, "# TYPE cord_sim_outbox_retained_peak gauge\ncord_sim_outbox_retained_peak %d\n", r.RetainedPeak)

	s := rt.Analyze(r)
	fmt.Fprintf(w, "# HELP cord_sim_efficiency fraction of elapsed simulator time spent executing events\n"+
		"# TYPE cord_sim_efficiency gauge\ncord_sim_efficiency %.4f\n", s.Efficiency)
}
