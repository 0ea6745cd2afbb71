package proto

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	rt "cord/internal/obs/runtime"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// Wire-size constants shared by all protocols. A control message is one
// header flit; data messages add their payload. These sizes follow CXL-style
// flit framing and are what the paper's traffic results are sensitive to:
// acknowledgments cost a full control message, while CORD's epoch number
// rides in reserved header bits of Relaxed stores for free (§4.1).
const (
	// HeaderBytes is the framing overhead of every message.
	HeaderBytes = 16
	// AckBytes is a directory->processor acknowledgment.
	AckBytes = HeaderBytes
	// LoadReqBytes is an acquire/poll request.
	LoadReqBytes = HeaderBytes
	// LoadRespBytes is an acquire/poll response carrying a flag word.
	LoadRespBytes = HeaderBytes + 8
	// ReqNotifyBytes is CORD's request-for-notification (header + counts).
	ReqNotifyBytes = HeaderBytes + 8
	// NotifyBytes is CORD's inter-directory notification.
	NotifyBytes = HeaderBytes
)

// Mode selects the memory consistency model being enforced (§6).
type Mode int

const (
	// RC is release consistency — the paper's primary target.
	RC Mode = iota
	// TSO is total store ordering — §6's study.
	TSO
)

func (m Mode) String() string {
	if m == TSO {
		return "TSO"
	}
	return "RC"
}

// System bundles the simulation substrate one protocol instance runs on.
//
// Every system is partitioned: one engine per host, advanced by a sim.Cluster
// in conservative windows of the interconnect's lookahead, with the network
// buffering cross-host messages between windows. A single-host system is a
// one-shard cluster. Components cache their host's engine and recorder via
// EngOf/ObsOf (see ProcBase/DirBase.InitBase).
type System struct {
	// Workers is ignored: hosts always run one after another. It stays only
	// because perfbench's kv workload assigns it; it goes with perfbench's
	// next benchmark revision.
	Workers int

	Net    *noc.Network
	Map    *memsys.Map
	Timing memsys.Timing
	Mode   Mode
	Run    *stats.Run
	// Obs is the optional observability recorder; nil (the default) disables
	// event tracing and metrics with no overhead beyond nil checks.
	Obs *obs.Recorder

	// cl is the windowed per-host scheduler.
	cl *sim.Cluster
	// recs are Obs's per-host children in an observed run, merged back into
	// Obs at the end of Exec.
	recs []*obs.Recorder
	// shardTraffic is the per-host traffic matrix, folded into Run.Traffic
	// at the end of Exec. Traffic is a pure accumulator, so the fold gives
	// the sums one shared instance would; the per-host instances keep the
	// network's one-accumulator-per-host shape, which it shares with its
	// engines and recorders.
	shardTraffic []stats.Traffic

	// stores indexes every directory slice's LLC store, registered by
	// DirBase.InitBase, so tests can read back final memory (ReadMem).
	stores map[noc.NodeID]*memsys.Store

	// hosts and tiles shape the dense node index (Index).
	hosts, tiles int

	// free recycles wire messages.
	free []*core.Msg
}

const freedKind core.MsgKind = 0xff // no handler accepts a freed message

// NewMsg returns a recycled message holding m (ownership: DESIGN.md §9.2).
func (s *System) NewMsg(m core.Msg) *core.Msg {
	var p *core.Msg
	if n := len(s.free); n > 0 {
		p, s.free = s.free[n-1], s.free[:n-1]
	} else {
		p = new(core.Msg)
	}
	*p = m
	return p
}

// FreeMsg recycles m. Freeing a message twice panics.
func (s *System) FreeMsg(m *core.Msg) {
	if m.Kind == freedKind {
		panic("proto: core.Msg freed twice")
	}
	m.Kind = freedKind
	s.free = append(s.free, m)
}

// NewSystem wires one engine per host, the network, and the address map for
// the given interconnect configuration.
func NewSystem(seed int64, nc noc.Config, mode Mode) *System {
	s := &System{
		Map:          memsys.NewMap(nc.Hosts, nc.TilesPerHost),
		Timing:       memsys.DefaultTiming(),
		Mode:         mode,
		Run:          &stats.Run{},
		cl:           sim.NewCluster(seed, nc.Hosts, nc.Lookahead()),
		shardTraffic: make([]stats.Traffic, nc.Hosts),
		stores:       make(map[noc.NodeID]*memsys.Store),
		hosts:        nc.Hosts,
		tiles:        nc.TilesPerHost,
	}
	traffics := make([]*stats.Traffic, nc.Hosts)
	for i := range traffics {
		traffics[i] = &s.shardTraffic[i]
	}
	s.Net = noc.NewPartitioned(s.cl.Engines(), nc, traffics)
	return s
}

// EngOf returns the engine that executes host's events.
func (s *System) EngOf(host int) *sim.Engine { return s.cl.Engine(host) }

// ObsOf returns the recorder host-resident components record into: the
// host's child of Obs in an observed run, nil otherwise (all recorder
// methods are nil-safe).
func (s *System) ObsOf(host int) *obs.Recorder {
	if s.recs != nil {
		return s.recs[host]
	}
	return nil
}

// Executed sums the events fired across all engines.
func (s *System) Executed() uint64 { return s.cl.Executed() }

// ReadMem reads the committed value of addr from its home directory slice's
// LLC store. It is a post-run inspection hook (differential tests compare
// final simulator memory against the model checker's allowed outcomes) and
// must not be called while the engine is running.
func (s *System) ReadMem(a memsys.Addr) uint64 {
	st, ok := s.stores[s.Map.HomeOf(a)]
	if !ok {
		return 0
	}
	return st.Read(a)
}

// Observe attaches an observability recorder to the system: protocol engines
// read their host's recorder (ObsOf), the network counts and traces every
// message, and each simulation engine reports event-queue occupancy. The
// recorder is split into one child per host; Exec merges them back
// deterministically. Call before Exec (protocol builders cache per-host
// recorders at build time). A nil rec detaches.
//
// The split stays although hosts run one after another: each child keeps its
// own sampling counter, and the merge orders events by (At, host), so these
// define the trace bytes of a multi-host run. One shared recorder fed in
// host order would reorder events inside a window and sample different
// messages.
func (s *System) Observe(rec *obs.Recorder) {
	s.Obs = rec
	s.recs = nil
	if rec != nil {
		s.recs = rec.Split(s.cl.Shards())
	}
	s.Net.SetObservers(s.recs)
	for i, e := range s.cl.Engines() {
		if r := s.ObsOf(i); r.Metrics() != nil {
			e.SetHook(func(_ sim.Time, pending int) { r.EngineDepth(pending) })
		} else {
			e.SetHook(nil)
		}
	}
}

// AttachRuntime wires a simulator-runtime telemetry collector into the
// scheduler: the cluster reports per-window shard timings and the cross-host
// census at each barrier. Unlike Observe, this never touches the simulated
// machine: wall-clock telemetry stays out of the deterministic
// trace/metrics/stats outputs by construction. A nil col detaches.
func (s *System) AttachRuntime(col *rt.Collector) {
	if col == nil {
		s.cl.SetWindowObserver(nil) // not a typed nil: that would be a live observer
		return
	}
	s.cl.SetWindowObserver(col)
}

// Nodes is the number of cores, and of directory slices: one of each per
// tile.
func (s *System) Nodes() int { return s.hosts * s.tiles }

// Index is a core's or directory slice's dense index, host*TilesPerHost+tile:
// the identity core rules and core.Msg use for processors and directories.
// Ascending index order matches noc.SortIDs order.
func (s *System) Index(id noc.NodeID) int { return id.Host*s.tiles + id.Tile }

// CoreAt is Index's inverse for cores.
func (s *System) CoreAt(ix int) noc.NodeID { return noc.CoreID(ix/s.tiles, ix%s.tiles) }

// DirAt is Index's inverse for directory slices.
func (s *System) DirAt(ix int) noc.NodeID { return noc.DirID(ix/s.tiles, ix%s.tiles) }

// Dirs enumerates every directory node in the system, in index order.
func (s *System) Dirs() []noc.NodeID {
	ids := make([]noc.NodeID, s.Nodes())
	for i := range ids {
		ids[i] = s.DirAt(i)
	}
	return ids
}

// CPU is a protocol's per-core engine.
type CPU interface {
	// Start begins executing prog; completion is observable via Done and the
	// per-core stats' Finished time.
	Start(prog Program)
	// StartSource begins pulling and executing ops from src (Start is the
	// special case src == prog.Source()); completion is observable via Done
	// and the per-core stats' Finished time.
	StartSource(src OpSource)
	// Done reports whether the operation stream has fully retired (including
	// any protocol-level draining the processor is responsible for).
	Done() bool
}

// Builder constructs a protocol instance over a system: one CPU per core in
// cores (in order), plus whatever directory-side state the protocol needs,
// registering all network handlers.
type Builder interface {
	Name() string
	Build(sys *System, cores []noc.NodeID) []CPU
}

// Exec runs programs (cores[i] executes progs[i]) under the given protocol
// and returns the populated run statistics. Execution time is the latest
// core completion; in-flight protocol messages after that point still count
// toward traffic (the network drains fully).
func Exec(sys *System, b Builder, cores []noc.NodeID, progs []Program) (*stats.Run, error) {
	if len(cores) != len(progs) {
		return nil, fmt.Errorf("proto: %d cores but %d programs", len(cores), len(progs))
	}
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("proto: program %d: %w", i, err)
		}
	}
	return run(sys, b, cores,
		func(c CPU, i int) { c.Start(progs[i]) },
		func(i int) string {
			return fmt.Sprintf("pc stuck, %d/%d ops", sys.Run.Procs[i].Ops, len(progs[i]))
		})
}

// ExecSources is Exec for pull-based operation streams: cores[i] pulls its
// ops from srcs[i] at simulated time. Unlike programs, sources cannot be
// validated up front — they are expected to yield well-formed ops (record a
// run through trace.Capture and replay it when in doubt).
func ExecSources(sys *System, b Builder, cores []noc.NodeID, srcs []OpSource) (*stats.Run, error) {
	if len(cores) != len(srcs) {
		return nil, fmt.Errorf("proto: %d cores but %d op sources", len(cores), len(srcs))
	}
	for i, s := range srcs {
		if s == nil {
			return nil, fmt.Errorf("proto: op source %d is nil", i)
		}
	}
	return run(sys, b, cores,
		func(c CPU, i int) { c.StartSource(srcs[i]) },
		func(i int) string {
			return fmt.Sprintf("source stalled after %d ops", sys.Run.Procs[i].Ops)
		})
}

// run is the shared Exec/ExecSources driver: build the protocol, start every
// core, advance the cluster to quiescence, fold per-host state, and collect
// completion.
func run(sys *System, b Builder, cores []noc.NodeID, start func(CPU, int), stuck func(int) string) (*stats.Run, error) {
	sys.Run.Procs = make([]stats.ProcStats, len(cores))
	cpus := b.Build(sys, cores)
	if len(cpus) != len(cores) {
		return nil, fmt.Errorf("proto: builder %s produced %d CPUs for %d cores", b.Name(), len(cpus), len(cores))
	}
	for i, c := range cpus {
		start(c, i)
	}
	if err := sys.cl.Run(1, sys.Net); err != nil {
		return nil, fmt.Errorf("proto: %s: %w", b.Name(), err)
	}
	for i := range sys.shardTraffic {
		sys.Run.Traffic.Merge(&sys.shardTraffic[i])
		sys.shardTraffic[i] = stats.Traffic{}
	}
	if sys.Obs != nil {
		sys.Obs.MergeShards(sys.recs)
	}
	var finish sim.Time
	for i, c := range cpus {
		if !c.Done() {
			return nil, fmt.Errorf("proto: %s: core %v deadlocked (%s)",
				b.Name(), cores[i], stuck(i))
		}
		if f := sys.Run.Procs[i].Finished; f > finish {
			finish = f
		}
	}
	sys.Run.Time = finish
	return sys.Run, nil
}
