// Package kvsvc is a service-level workload for the simulator: a sharded,
// replicated key-value service whose request streams are produced reactively
// through proto.OpSource — the next operation of a server core is decided
// only once the previous one retired, at simulated time. Where
// workload.Pattern asks "how fast does this protocol finish a fixed trace",
// kvsvc asks the ROADMAP's service-level question: "how many requests per
// second does it serve at what p99?".
//
// # Service model
//
// Every (host, tile) server core owns Shards shards of the keyspace. A shard
// is replicated to the next host over (ReplicaStride): the owner writes the
// value bytes, a session-dedup table entry, and (optionally) an index update
// into the replica host's directory, then publishes the shard's new version
// with a Release store to the shard's replica flag — the classic
// release-consistency publish idiom, one lock-protected critical section per
// put. Get requests are served from the replica co-located with the serving
// core: the core acquire-polls the flag of the mirror shard (the one whose
// owner sits ReplicaStride hosts back), waiting until the version it needs
// has been published. Version "needs" grow monotonically per session stream
// (monotonic-reads session guarantee), so a get's latency directly measures
// how quickly the protocol under test propagates releases across hosts:
// protocols that stall the owning core on release acks (SO) both serve puts
// slower and delay the versions gets are waiting on.
//
// # Load generation
//
// Each server core multiplexes Clients client sessions (a few dozen to
// millions — sessions are ~32 bytes). Closed loop: a session issues a
// request, waits for its completion, thinks for an exponentially distributed
// virtual-time delay, and issues the next. Open loop: each session's
// arrivals are pre-scheduled at exponential inter-arrival times independent
// of completions, so overload shows up as unbounded queueing delay rather
// than reduced offered load. Request latency is measured arrival-to-
// completion (queueing included) and recorded per request class into
// high-resolution histograms.
//
// # Determinism
//
// Sources are strictly per-core: each has its own seeded PRNG, client pool,
// and version/want counters, and never shares mutable state with another
// core's source. All think clocks are virtual (engine cycles, never wall
// clock), and every random draw happens at a point fixed by the core's own
// pull sequence — so the op stream each core produces is a pure function of
// (config, seed, core), independent of sim-worker count or wall-clock
// scheduling. Cross-core interaction happens only through the simulated
// memory system, which the conservative-window cluster already orders
// deterministically. A source that runs out of client requests publishes a
// sentinel version (far above any reachable want) to each owned shard flag,
// guaranteeing that every outstanding mirror-read unblocks no matter how the
// random put/get mix came out.
package kvsvc

import (
	"fmt"
	"math/rand"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/sim"
	"cord/internal/stats"
)

// SentinelVersion is the shard-flag value a source publishes when its client
// sessions are exhausted: far above any version a session can want, so every
// pending mirror read completes. Real services quiesce the same way — a final
// anti-entropy pass before shutdown.
const SentinelVersion = 1 << 40

// Address layout inside a shard's 16 MB replica region (offset bits below
// regionShift): value bytes at the bottom, the session-dedup table above
// dedupBit, the version flag word at flagBit. Index updates live in their own
// region above indexBase on a *different* directory slice, so a put's epoch
// spans two directories and exercises CORD's inter-directory notifications.
const (
	regionShift = 24
	flagBit     = 1 << 23
	dedupBit    = 1 << 22
	indexBase   = 1 << 31
	dedupSlots  = 512
	maxShards   = 64
	// maxValueRegion bounds KeysPerShard * value span so the value area stays
	// below dedupBit.
	maxValueRegion = dedupBit
)

// Config describes one KV-service run. The zero value is not runnable; start
// from Default() and override.
type Config struct {
	Name string

	// ServersPerHost is how many tiles per host run a server core (every
	// host participates; must not exceed the fabric's TilesPerHost).
	ServersPerHost int
	// Shards is the number of keyspace shards each server core owns (1..64).
	Shards int
	// Clients is the number of client sessions multiplexed on each server
	// core.
	Clients int
	// Requests is how many requests each session issues before closing.
	Requests int
	// GetPct is the percentage of requests that are gets (0..100); the rest
	// are puts.
	GetPct int
	// ValueBytes is the payload written per put (1..4096).
	ValueBytes int
	// KeysPerShard is the number of distinct keys per shard; put targets are
	// drawn Zipf(ZipfS)-distributed over them.
	KeysPerShard int
	// ZipfS is the Zipf skew parameter (> 1; ~1.2 models typical KV key
	// popularity).
	ZipfS float64
	// ServiceCycles is the request-handling compute charged per request
	// before its memory operations.
	ServiceCycles int
	// ThinkCycles is the closed-loop mean think time between a session's
	// completion and its next request (exponentially distributed, virtual
	// time). Ignored under OpenLoop.
	ThinkCycles float64
	// OpenLoop pre-schedules each session's arrivals at ArrivalCycles mean
	// inter-arrival times, independent of completions.
	OpenLoop bool
	// ArrivalCycles is the open-loop mean inter-arrival time per session.
	ArrivalCycles float64
	// ReplicaStride is how many hosts over a shard's replica lives
	// (default 1; must not be a multiple of the host count).
	ReplicaStride int
	// IndexUpdate adds one 8-byte store to a second directory slice per put,
	// making every put epoch span two directories.
	IndexUpdate bool
	// Seed derives every per-core PRNG.
	Seed int64
}

// Default returns a small closed-loop configuration that differentiates the
// four protocols in a few hundred thousand simulated cycles.
func Default() Config {
	return Config{
		Name:           "kvsvc",
		ServersPerHost: 2,
		Shards:         4,
		Clients:        32,
		Requests:       24,
		GetPct:         50,
		ValueBytes:     256,
		KeysPerShard:   64,
		ZipfS:          1.2,
		ServiceCycles:  40,
		ThinkCycles:    2000,
		ReplicaStride:  1,
		IndexUpdate:    true,
		Seed:           1,
	}
}

// withDefaults fills the fields most callers leave zero.
func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "kvsvc"
	}
	if c.ReplicaStride == 0 {
		c.ReplicaStride = 1
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.ServiceCycles == 0 {
		c.ServiceCycles = 40
	}
	return c
}

// Validate reports structural problems independent of the fabric shape
// (ValidateFabric checks it against the fabric).
func (c Config) Validate() error {
	switch {
	case c.ServersPerHost < 1:
		return fmt.Errorf("kvsvc: ServersPerHost %d < 1", c.ServersPerHost)
	case c.Shards < 1 || c.Shards > maxShards:
		return fmt.Errorf("kvsvc: Shards %d outside [1,%d]", c.Shards, maxShards)
	case c.Clients < 1:
		return fmt.Errorf("kvsvc: Clients %d < 1", c.Clients)
	case c.Requests < 1:
		return fmt.Errorf("kvsvc: Requests %d < 1", c.Requests)
	case c.GetPct < 0 || c.GetPct > 100:
		return fmt.Errorf("kvsvc: GetPct %d outside [0,100]", c.GetPct)
	case c.ValueBytes < 1 || c.ValueBytes > 4096:
		return fmt.Errorf("kvsvc: ValueBytes %d outside [1,4096]", c.ValueBytes)
	case c.KeysPerShard < 1:
		return fmt.Errorf("kvsvc: KeysPerShard %d < 1", c.KeysPerShard)
	case c.KeysPerShard > 1 && c.ZipfS <= 1:
		return fmt.Errorf("kvsvc: ZipfS %v must exceed 1", c.ZipfS)
	case c.ServiceCycles < 1:
		return fmt.Errorf("kvsvc: ServiceCycles %d < 1", c.ServiceCycles)
	case c.ThinkCycles < 0:
		return fmt.Errorf("kvsvc: ThinkCycles %v < 0", c.ThinkCycles)
	case c.OpenLoop && c.ArrivalCycles <= 0:
		return fmt.Errorf("kvsvc: open loop needs ArrivalCycles > 0, have %v", c.ArrivalCycles)
	case c.ReplicaStride < 1:
		return fmt.Errorf("kvsvc: ReplicaStride %d < 1", c.ReplicaStride)
	}
	if span := uint64(c.KeysPerShard) * valueSpan(c.ValueBytes); span > maxValueRegion {
		return fmt.Errorf("kvsvc: KeysPerShard %d x %dB values needs %d bytes, exceeds the %d-byte shard value region",
			c.KeysPerShard, c.ValueBytes, span, maxValueRegion)
	}
	return nil
}

// ValidateFabric reports the problems that depend on the fabric shape:
// replication needs two hosts, the servers must fit a host's tiles, and the
// replica stride must not map a shard onto its owner. Build runs it too.
func (c Config) ValidateFabric(nc noc.Config) error {
	c = c.withDefaults()
	switch {
	case nc.Hosts < 2:
		return fmt.Errorf("kvsvc: need >= 2 hosts for replication, have %d", nc.Hosts)
	case c.ServersPerHost > nc.TilesPerHost:
		return fmt.Errorf("kvsvc: ServersPerHost %d exceeds %d tiles per host",
			c.ServersPerHost, nc.TilesPerHost)
	case c.ReplicaStride%nc.Hosts == 0:
		return fmt.Errorf("kvsvc: ReplicaStride %d is a multiple of the host count %d (shards would replicate onto their owner)",
			c.ReplicaStride, nc.Hosts)
	}
	return nil
}

// valueSpan is the line-aligned footprint of one value.
func valueSpan(valueBytes int) uint64 {
	lines := (valueBytes + memsys.LineBytes - 1) / memsys.LineBytes
	return uint64(lines * memsys.LineBytes)
}

// Stats aggregates the service-level outcome of one or more server cores.
type Stats struct {
	// Completed counts finished requests per class (obs.ReqGet/obs.ReqPut).
	Completed [obs.NumReqKinds]uint64
	// Latency is the arrival-to-completion distribution per class, in cycles.
	Latency [obs.NumReqKinds]stats.HDist
}

// Merge folds other into s (commutative, like every shard-merged registry).
func (s *Stats) Merge(other *Stats) {
	for k := 0; k < obs.NumReqKinds; k++ {
		s.Completed[k] += other.Completed[k]
		s.Latency[k].Merge(&other.Latency[k])
	}
}

// Total returns the number of completed requests across classes.
func (s *Stats) Total() uint64 {
	var t uint64
	for _, n := range s.Completed {
		t += n
	}
	return t
}

// Overall returns the request-latency distribution across classes.
func (s *Stats) Overall() stats.HDist {
	var d stats.HDist
	for k := range s.Latency {
		d.Merge(&s.Latency[k])
	}
	return d
}

// Service is one built instance of the workload: a set of per-core pull
// sources over a concrete fabric. Build a fresh Service per run — sources
// are single-use cursors.
type Service struct {
	cfg   Config
	cores []noc.NodeID
	srcs  []*Source
}

// Build validates cfg against the fabric shape and constructs one source per
// server core (host-major, tile-minor — the same core order every other
// workload uses).
func (c Config) Build(nc noc.Config) (*Service, error) {
	cfg := c.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.ValidateFabric(nc); err != nil {
		return nil, err
	}
	svc := &Service{cfg: cfg}
	for h := 0; h < nc.Hosts; h++ {
		for t := 0; t < cfg.ServersPerHost; t++ {
			core := noc.CoreID(h, t)
			seed := cfg.Seed + 1000003*int64(len(svc.srcs)+1)
			svc.cores = append(svc.cores, core)
			svc.srcs = append(svc.srcs, newSource(&svc.cfg, core, nc.Hosts, nc.TilesPerHost, seed))
		}
	}
	return svc, nil
}

// Cores returns the server cores, aligned with Sources.
func (s *Service) Cores() []noc.NodeID { return s.cores }

// Sources returns the per-core op sources for proto.ExecSources.
func (s *Service) Sources() []proto.OpSource {
	out := make([]proto.OpSource, len(s.srcs))
	for i, src := range s.srcs {
		out[i] = src
	}
	return out
}

// SourceList exposes the concrete sources (for trace capture wrapping).
func (s *Service) SourceList() []*Source { return s.srcs }

// Stats merges the per-core service stats (call after the run).
func (s *Service) Stats() Stats {
	var agg Stats
	for _, src := range s.srcs {
		agg.Merge(&src.St)
	}
	return agg
}

// Config returns the (defaults-filled) configuration the service was built
// with.
func (s *Service) Config() Config { return s.cfg }

// OfferedPerCycle returns the configured offered load in requests per cycle
// across all server cores — exact for the open loop (arrival rate), and the
// zero-service-time ceiling Clients/Think for the closed loop.
func (s *Service) OfferedPerCycle() float64 {
	n := float64(len(s.srcs) * s.cfg.Clients)
	if s.cfg.OpenLoop {
		return n / s.cfg.ArrivalCycles
	}
	if s.cfg.ThinkCycles <= 0 {
		return 0
	}
	return n / s.cfg.ThinkCycles
}

// session is one client session multiplexed on a server core.
type session struct {
	readyAt sim.Time
	left    int32
}

// Source produces one server core's op stream. It implements proto.OpSource
// and proto.CoreAttachable.
type Source struct {
	cfg   *Config
	core  noc.NodeID
	hosts int
	tiles int
	rng   *rand.Rand
	zipf  *rand.Zipf
	rec   *obs.Recorder

	sessions []session
	heap     []int32 // min-heap of session indices by (readyAt, index)

	versions []uint64 // per owned shard: last published version
	seen     []uint64 // per mirror shard: version this core's reads reached

	// Current request state machine.
	cur       int32 // active session index, -1 when idle
	reqKind   uint8 // obs.ReqGet / obs.ReqPut
	shard     int32
	arrival   sim.Time
	opIdx     int32
	want      uint64
	version   uint64
	valueLeft int
	valueAddr memsys.Addr
	indexDone bool
	relDone   bool

	sentinelIdx int32 // next owned shard to sentinel; -1 until sessions drain
	ended       bool

	started  uint64 // requests begun (put/get schedule index)
	putCount uint64 // puts begun (round-robin shard index)
	reqSeq   uint64 // completed-request counter (KReqDone Seq, want floor)

	// St is the core's service-level outcome, merged by Service.Stats.
	St Stats
}

func newSource(cfg *Config, core noc.NodeID, hosts, tiles int, seed int64) *Source {
	rng := rand.New(rand.NewSource(seed))
	s := &Source{
		cfg:         cfg,
		core:        core,
		hosts:       hosts,
		tiles:       tiles,
		rng:         rng,
		sessions:    make([]session, cfg.Clients),
		heap:        make([]int32, 0, cfg.Clients),
		versions:    make([]uint64, cfg.Shards),
		seen:        make([]uint64, cfg.Shards),
		cur:         -1,
		sentinelIdx: -1,
	}
	if cfg.KeysPerShard > 1 {
		s.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.KeysPerShard-1))
	}
	for i := range s.sessions {
		s.sessions[i] = session{readyAt: s.drawArrivalGap(), left: int32(cfg.Requests)}
		s.push(int32(i))
	}
	return s
}

// AttachCore implements proto.CoreAttachable: the recorder is the core's
// host-shard recorder (nil-safe), used for KReqDone events and request
// metrics.
func (s *Source) AttachCore(core noc.NodeID, _ *sim.Engine, rec *obs.Recorder) {
	s.rec = rec
}

// drawArrivalGap draws a think/inter-arrival gap in cycles.
func (s *Source) drawArrivalGap() sim.Time {
	mean := s.cfg.ThinkCycles
	if s.cfg.OpenLoop {
		mean = s.cfg.ArrivalCycles
	}
	if mean <= 0 {
		return 0
	}
	return sim.Time(s.rng.ExpFloat64() * mean)
}

// Next implements proto.OpSource.
func (s *Source) Next(now sim.Time) (proto.Op, bool) {
	if s.ended {
		return proto.Op{}, false
	}
	if s.cur >= 0 {
		if op, more := s.nextOp(); more {
			return op, true
		}
		s.completeRequest(now)
	}
	if s.sentinelIdx >= 0 {
		return s.nextSentinel()
	}
	if len(s.heap) == 0 {
		s.sentinelIdx = 0
		return s.nextSentinel()
	}
	top := s.heap[0]
	if rt := s.sessions[top].readyAt; rt > now {
		// Core idle until the next arrival: model the wait as compute so the
		// engine wakes the core exactly then.
		return proto.Compute(rt - now), true
	}
	s.pop()
	return s.startRequest(top, now), true
}

// putsDue is the number of puts among a core's first n requests under the
// Bresenham-spread put/get schedule: puts are deterministic in the request
// count (never random), which is what the no-deadlock argument below needs.
func putsDue(n uint64, getPct int) uint64 {
	return n * uint64(100-getPct) / 100
}

// versionFloor is the version every owned shard is guaranteed to have
// published once a core has completed n requests: puts round-robin over the
// core's shards, so p puts put at least floor(p/Shards) versions on each.
func (s *Source) versionFloor(n uint64) uint64 {
	return putsDue(n, s.cfg.GetPct) / uint64(s.cfg.Shards)
}

// startRequest decides the request and returns its first op (the handling
// compute). Key and get-shard choice are Zipf/uniform random from the core's
// own PRNG, in an order fixed by the core's pull sequence — never by
// cross-core timing. The put/get *schedule* and the versions gets demand are
// deterministic in the core's request count, which makes the service
// deadlock-free by construction: a get issued after completing n requests
// wants at most versionFloor(n), a version its mirror owner is guaranteed to
// have published by the time *it* completes n requests (every core runs the
// same schedule). A circular wait would therefore need each core in the
// cycle to be stuck strictly earlier in its request sequence than the
// previous one — impossible around a cycle. Wants below the floor stay
// genuinely interesting: how long the acquire takes still depends on how
// quickly the protocol propagates the owner's releases across hosts.
func (s *Source) startRequest(idx int32, now sim.Time) proto.Op {
	sess := &s.sessions[idx]
	s.cur = idx
	s.arrival = sess.readyAt
	s.opIdx = 0
	sess.left--
	if s.cfg.OpenLoop && sess.left > 0 {
		// Arrivals are pre-scheduled: the session's next request becomes
		// ready independent of this one's completion.
		sess.readyAt += s.drawArrivalGap()
		s.push(idx)
	}
	n := s.started
	s.started++
	if putsDue(n+1, s.cfg.GetPct) == putsDue(n, s.cfg.GetPct) {
		s.reqKind = obs.ReqGet
		s.shard = int32(s.rng.Intn(s.cfg.Shards))
		// Monotonic-reads session guarantee, capped at the deterministic
		// publication floor: demand one version past what this core has
		// seen while that stays provably published. A want of 0 (warm-up,
		// before the floor moves) is served from the local replica with no
		// memory traffic.
		w := s.seen[s.shard]
		if w < s.versionFloor(s.reqSeq) {
			w++
			s.seen[s.shard] = w
		}
		s.want = w
	} else {
		s.reqKind = obs.ReqPut
		s.shard = int32(s.putCount % uint64(s.cfg.Shards))
		s.putCount++
		key := uint64(0)
		if s.zipf != nil {
			key = s.zipf.Uint64()
		}
		s.versions[s.shard]++
		s.version = s.versions[s.shard]
		s.valueLeft = s.cfg.ValueBytes
		s.valueAddr = s.valueAddrOf(int(s.shard), key)
		s.indexDone = !s.cfg.IndexUpdate
		s.relDone = false
	}
	return proto.Compute(sim.Time(s.cfg.ServiceCycles))
}

// nextOp emits the current request's next memory operation, or reports the
// request finished.
func (s *Source) nextOp() (proto.Op, bool) {
	s.opIdx++
	if s.reqKind == obs.ReqGet {
		if s.opIdx == 1 && s.want > 0 {
			return proto.AcquireLoad(s.mirrorFlagAddr(int(s.shard)), s.want), true
		}
		return proto.Op{}, false
	}
	if s.opIdx == 1 {
		return proto.StoreRelaxed(s.dedupAddr(int(s.shard), int(s.cur)), 8), true
	}
	if s.valueLeft > 0 {
		n := s.valueLeft
		if n > memsys.LineBytes {
			n = memsys.LineBytes
		}
		s.valueLeft -= n
		op := proto.StoreRelaxed(s.valueAddr, n)
		s.valueAddr += memsys.LineBytes
		return op, true
	}
	if !s.indexDone {
		s.indexDone = true
		return proto.StoreRelaxed(s.indexAddr(int(s.shard)), 8), true
	}
	if !s.relDone {
		s.relDone = true
		return proto.StoreRelease(s.flagAddr(int(s.shard)), 8, s.version), true
	}
	return proto.Op{}, false
}

// completeRequest retires the current request at time now: record its
// latency, reschedule the session (closed loop), and free the core.
func (s *Source) completeRequest(now sim.Time) {
	lat := now - s.arrival
	k := int(s.reqKind)
	s.St.Completed[k]++
	s.St.Latency[k].Add(lat)
	if rec := s.rec; rec != nil {
		rec.ObserveRequest(k, lat)
		if rec.Take() {
			rec.Record(obs.Event{At: now, Kind: obs.KReqDone, Src: s.core.Obs(),
				Seq: s.reqSeq, Dur: lat, Op: s.reqKind})
		}
	}
	s.reqSeq++
	sess := &s.sessions[s.cur]
	if !s.cfg.OpenLoop && sess.left > 0 {
		sess.readyAt = now + s.drawArrivalGap()
		s.push(s.cur)
	}
	s.cur = -1
}

// nextSentinel publishes SentinelVersion to each owned shard flag, then ends
// the stream.
func (s *Source) nextSentinel() (proto.Op, bool) {
	if int(s.sentinelIdx) >= s.cfg.Shards {
		s.ended = true
		return proto.Op{}, false
	}
	j := int(s.sentinelIdx)
	s.sentinelIdx++
	return proto.StoreRelease(s.flagAddr(j), 8, SentinelVersion), true
}

// --- address construction ---------------------------------------------------

// replicaHost is the host whose directories hold this core's shard replicas.
func (s *Source) replicaHost() int {
	return (s.core.Host + s.cfg.ReplicaStride) % s.hosts
}

// flagAddr is owned shard j's version flag, homed on the replica host's
// same-numbered directory slice.
func (s *Source) flagAddr(j int) memsys.Addr {
	return memsys.Compose(s.replicaHost(), s.core.Tile, uint64(j)<<regionShift|flagBit)
}

// mirrorFlagAddr is mirror shard j's flag — the shard owned by the core
// ReplicaStride hosts back, whose replica (and flag) is homed on *this*
// core's host, making the acquire poll an intra-host round trip whose wanted
// version nonetheless depends on cross-host release propagation.
func (s *Source) mirrorFlagAddr(j int) memsys.Addr {
	return memsys.Compose(s.core.Host, s.core.Tile, uint64(j)<<regionShift|flagBit)
}

// dedupAddr is the session-dedup table slot for (shard j, session) on the
// replica directory.
func (s *Source) dedupAddr(j, sess int) memsys.Addr {
	off := uint64(j)<<regionShift | dedupBit | uint64(sess%dedupSlots)*8
	return memsys.Compose(s.replicaHost(), s.core.Tile, off)
}

// valueAddrOf is the first line of key's value slot in shard j's replica
// value region.
func (s *Source) valueAddrOf(j int, key uint64) memsys.Addr {
	off := uint64(j)<<regionShift | key*valueSpan(s.cfg.ValueBytes)
	return memsys.Compose(s.replicaHost(), s.core.Tile, off)
}

// indexAddr is shard j's index-update word, homed on the replica host's
// *next* directory slice so the put epoch spans two directories.
func (s *Source) indexAddr(j int) memsys.Addr {
	off := indexBase | uint64(s.core.Tile)<<16 | uint64(j)<<3
	return memsys.Compose(s.replicaHost(), (s.core.Tile+1)%s.tiles, off)
}

// --- session min-heap (by readyAt, index-tie-broken, preallocated) ----------

func (s *Source) less(a, b int32) bool {
	sa, sb := &s.sessions[a], &s.sessions[b]
	if sa.readyAt != sb.readyAt {
		return sa.readyAt < sb.readyAt
	}
	return a < b
}

func (s *Source) push(idx int32) {
	s.heap = append(s.heap, idx)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Source) pop() int32 {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && s.less(s.heap[l], s.heap[small]) {
			small = l
		}
		if r < last && s.less(s.heap[r], s.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}
