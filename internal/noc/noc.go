// Package noc models the multi-PU interconnect of the simulated system: a
// mesh inside each CPU host and a single switch (or ring) between hosts. The
// paper-default geometry is Table 1's: 8 CPU hosts, each with 8 tiles in a
// 2x4 mesh (CXLConfig/UPIConfig); every dimension — host count, tiles per
// host, mesh width — is configurable, and the scaling studies run the same
// code at 64-256 hosts. The network provides latency (per-hop mesh latency,
// inter-host link latency), bandwidth (serialization on the inter-host
// ports), optional delivery jitter (to exercise out-of-order arrival handling
// in protocols), and per-class traffic accounting.
//
// Every host runs on an engine, and a delivery between hosts on the same
// engine is scheduled on it directly. A send to a host on another engine is
// filed at once into an arrival calendar, and the window barrier (Flush)
// injects it into the destination engine in deterministic (time, source
// host, sequence) order. NewPartitioned gives each host its own engine, as
// the host-sharded cluster scheduler needs; New puts every host on one
// engine, so nothing is ever buffered.
package noc

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cord/internal/obs"
	"cord/internal/sim"
	"cord/internal/stats"
)

// NodeKind distinguishes processor cores from directory/LLC slices.
type NodeKind int

const (
	// Core is a processor core node.
	Core NodeKind = iota
	// Dir is a directory + LLC-slice node.
	Dir
)

func (k NodeKind) String() string {
	if k == Core {
		return "core"
	}
	return "dir"
}

// NodeID identifies an endpoint: a core or a directory slice on a tile of a
// host's mesh. A core and the directory slice with the same Host/Tile are
// co-located (same mesh tile), as in the paper's architecture (Fig. 6 right).
type NodeID struct {
	Host int
	Tile int
	Kind NodeKind
}

func (n NodeID) String() string {
	return fmt.Sprintf("%s[h%d.t%d]", n.Kind, n.Host, n.Tile)
}

// Obs converts the ID to the observability layer's node representation.
func (n NodeID) Obs() obs.Node {
	return obs.Node{Host: n.Host, Tile: n.Tile, Dir: n.Kind == Dir}
}

// CoreID and DirID are convenience constructors.
func CoreID(host, tile int) NodeID { return NodeID{Host: host, Tile: tile, Kind: Core} }

// DirID returns the NodeID of directory slice tile on host.
func DirID(host, tile int) NodeID { return NodeID{Host: host, Tile: tile, Kind: Dir} }

// InterTopo selects the inter-host topology.
type InterTopo int

const (
	// Switch is the paper's single-switch star (Table 1): every host pair
	// is one switch traversal apart.
	Switch InterTopo = iota
	// Ring connects hosts in a bidirectional ring; the inter-host latency
	// is per link, so distant hosts pay multiple traversals. Models the
	// "increasingly complex interconnect topologies" §3.2 anticipates.
	Ring
)

func (t InterTopo) String() string {
	if t == Ring {
		return "ring"
	}
	return "switch"
}

// Config describes the interconnect geometry and timing.
type Config struct {
	Hosts        int      // number of CPU hosts
	TilesPerHost int      // cores (= directory slices) per host
	MeshCols     int      // mesh width (2x4 mesh: Cols=4, Rows=2)
	HopCycles    sim.Time // per-mesh-hop latency (Table 1: 10 cycles)
	// Topology is the inter-host topology (default: single switch).
	Topology InterTopo
	// InterHostNs is the one-way inter-host ("inter-PU directory access")
	// latency in nanoseconds: 150 for CXL, 50 for UPI (Table 1).
	InterHostNs float64
	// LinkBytesPerCycle is the bandwidth of each directional inter-host port
	// (Table 1: 64 GB/s = 32 B/ns = 16 B per 0.5ns cycle... expressed here in
	// bytes per cycle at the 2 GHz core clock: 64 GB/s -> 32 B/cycle).
	LinkBytesPerCycle float64
	// JitterCycles adds a uniformly random [0, JitterCycles] delivery skew to
	// model adaptive routing / multipath reordering. 0 disables jitter.
	JitterCycles int
	// PortTile is the mesh tile that hosts the inter-host port (CXL/UPI
	// port in Fig. 6); traffic leaving/entering the host crosses it.
	PortTile int
}

// CXLConfig returns the paper's CXL system configuration (Table 1).
func CXLConfig() Config {
	return Config{
		Hosts: 8, TilesPerHost: 8, MeshCols: 4,
		HopCycles:         10,
		InterHostNs:       150,
		LinkBytesPerCycle: 32,
		JitterCycles:      4,
	}
}

// UPIConfig returns the paper's UPI configuration: same system, 50 ns links.
func UPIConfig() Config {
	c := CXLConfig()
	c.InterHostNs = 50
	return c
}

// Validate reports configuration errors.
// Validation bounds on the timing parameters. They are physically absurd
// (half a millisecond per mesh hop, one second across the interconnect) and
// exist to keep latency arithmetic far from uint64 overflow: FuzzConfigValidate
// found that an unbounded HopCycles — e.g. a negative value forced through
// the unsigned sim.Time — wraps delay computation and corrupts the event
// wheel.
const (
	maxHopCycles   = 1 << 20
	maxInterHostNs = 1e9
)

func (c Config) Validate() error {
	switch {
	case c.Hosts < 1:
		return fmt.Errorf("noc: Hosts = %d, need >= 1", c.Hosts)
	case c.TilesPerHost < 1:
		return fmt.Errorf("noc: TilesPerHost = %d, need >= 1", c.TilesPerHost)
	case c.MeshCols < 1:
		return fmt.Errorf("noc: MeshCols = %d, need >= 1", c.MeshCols)
	case c.TilesPerHost%c.MeshCols != 0:
		return fmt.Errorf("noc: TilesPerHost %d not divisible by MeshCols %d", c.TilesPerHost, c.MeshCols)
	case c.HopCycles > maxHopCycles:
		return fmt.Errorf("noc: HopCycles %d exceeds the %d-cycle bound", c.HopCycles, int64(maxHopCycles))
	case math.IsNaN(c.InterHostNs) || c.InterHostNs < 0 || c.InterHostNs > maxInterHostNs:
		return fmt.Errorf("noc: InterHostNs %v outside [0, %g]", c.InterHostNs, float64(maxInterHostNs))
	case math.IsNaN(c.LinkBytesPerCycle) || math.IsInf(c.LinkBytesPerCycle, 0) || c.LinkBytesPerCycle <= 0:
		return fmt.Errorf("noc: LinkBytesPerCycle must be positive and finite")
	case c.JitterCycles < 0:
		return fmt.Errorf("noc: JitterCycles %d must be non-negative", c.JitterCycles)
	case c.PortTile < 0 || c.PortTile >= c.TilesPerHost:
		return fmt.Errorf("noc: PortTile %d out of range", c.PortTile)
	}
	return nil
}

// Lookahead returns the conservative simulation window W in cycles:
// a lower bound on the delivery latency of any cross-host message. Every
// cross-host send pays at least one inter-host link traversal
// (sim.FromNanos(InterHostNs); ring distances are >= 1 link) on top of
// non-negative mesh, serialization, queueing, and jitter terms, so an event
// executing at time t cannot make another host's shard busy before t+W.
// Clamped to >= 1 so a degenerate zero-latency configuration still advances.
func (c Config) Lookahead() sim.Time {
	w := sim.FromNanos(c.InterHostNs)
	if w < 1 {
		w = 1
	}
	return w
}

// meshHops returns the Manhattan distance between two tiles of a host mesh.
func (c Config) meshHops(a, b int) int {
	ax, ay := a%c.MeshCols, a/c.MeshCols
	bx, by := b%c.MeshCols, b/c.MeshCols
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// link models a directional inter-host port with finite bandwidth: messages
// serialize one after another.
type link struct {
	nextFree sim.Time
}

// Handler receives delivered messages at a node.
type Handler func(src NodeID, payload any)

// packID encodes a NodeID into the one-word source tag a sim.DeliverFunc
// carries: kind in bit 0, tile in bits 1..32, host above. unpackID inverts
// it. Packing keeps the hot delivery path free of closures — the source node
// rides in the event slot itself.
func packID(id NodeID) uint64 {
	return uint64(id.Host)<<33 | uint64(id.Tile)<<1 | uint64(id.Kind)
}

func unpackID(w uint64) NodeID {
	return NodeID{Host: int(w >> 33), Tile: int(w >> 1 & 0xFFFFFFFF), Kind: NodeKind(w & 1)}
}

// xmsg is one buffered cross-engine message. The
// (at, srcHost, seq) triple is the deterministic injection order at the
// window barrier: at and srcHost fix the position across shards, seq (a
// per-source-host counter) fixes it within one shard's same-cycle sends.
type xmsg struct {
	at      sim.Time
	seq     uint64
	srcHost int32
	dstIdx  int32
	traced  bool
	src     uint64 // packed source NodeID
	class   stats.MsgClass
	bytes   int32
	next    int32    // calendar bucket chain link (slab index, 0 = end)
	dur     sim.Time // full source-to-destination latency, for the KDeliver event
	payload any
}

// Network connects cores and directories. Handlers are registered per node;
// Send computes delay (mesh hops, serialization, inter-host latency, jitter),
// accounts traffic, and schedules the destination handler.
type Network struct {
	cfg Config
	// Per-host engines, traffic accumulators and optional recorders (nil
	// disables tracing). Hosts may share an engine and a traffic accumulator
	// (New). Everything indexed by host is touched only while that host's
	// engine runs; shards run one after another, so the calendar needs no
	// lock.
	engines  []*sim.Engine
	traffics []*stats.Traffic
	recs     []*obs.Recorder
	seqs     []uint64  // per-source-host send sequence numbers
	cal      *calendar // cross-host messages awaiting their window

	// egress[h] is host h's directional switch port; its serialization
	// state is owned by the sending host.
	egress []link
	// handlers / deliver are dense per-node tables indexed by
	// (host, tile, kind): the registered handler and its monomorphic
	// delivery wrapper (allocated once at Register, reused per message).
	handlers []Handler
	deliver  []sim.DeliverFunc
	// linkWhole is the integral bytes-per-cycle link bandwidth, or 0 when
	// the configured bandwidth is fractional and serialization falls back
	// to float ceil.
	linkWhole uint64
}

// New creates a network with every host on one engine, accounting all
// traffic into one accumulator. It panics on invalid configuration, which is
// a programming error in experiment setup, not a runtime condition.
func New(eng *sim.Engine, cfg Config, traffic *stats.Traffic) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	engines := make([]*sim.Engine, cfg.Hosts)
	traffics := make([]*stats.Traffic, cfg.Hosts)
	for h := range engines {
		engines[h], traffics[h] = eng, traffic
	}
	return NewPartitioned(engines, cfg, traffics)
}

// NewPartitioned creates a network over the host-sharded cluster scheduler:
// engines[h] and traffics[h] belong to host h's shard. The returned network
// implements sim.Exchanger; pass it to sim.Cluster.Run so buffered
// cross-host messages are injected at each window barrier.
func NewPartitioned(engines []*sim.Engine, cfg Config, traffics []*stats.Traffic) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(engines) != cfg.Hosts || len(traffics) != cfg.Hosts {
		panic(fmt.Sprintf("noc: %d engines / %d traffics for %d hosts",
			len(engines), len(traffics), cfg.Hosts))
	}
	n := &Network{
		cfg:      cfg,
		engines:  engines,
		traffics: traffics,
		seqs:     make([]uint64, cfg.Hosts),
		cal:      &calendar{slab: make([]xmsg, 1)}, // slot 0 is the nil link
		egress:   make([]link, cfg.Hosts),
		handlers: make([]Handler, cfg.Hosts*cfg.TilesPerHost*2),
		deliver:  make([]sim.DeliverFunc, cfg.Hosts*cfg.TilesPerHost*2),
	}
	if bpc := cfg.LinkBytesPerCycle; bpc >= 1 && bpc == math.Trunc(bpc) {
		n.linkWhole = uint64(bpc)
	}
	return n
}

// nodeIndex maps a NodeID to its slot in the dense per-node tables, or -1
// when the ID lies outside the configured geometry.
func (n *Network) nodeIndex(id NodeID) int {
	if uint(id.Host) >= uint(n.cfg.Hosts) || uint(id.Tile) >= uint(n.cfg.TilesPerHost) ||
		uint(id.Kind) > uint(Dir) {
		return -1
	}
	return (id.Host*n.cfg.TilesPerHost+id.Tile)<<1 | int(id.Kind)
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// SetObservers installs per-host recorders (nil disables): messages record
// into their source host's recorder, deliveries into the destination host's.
// Metrics are updated for every message; hop events obey the recorder's
// sampling.
func (n *Network) SetObservers(recs []*obs.Recorder) {
	if recs != nil && len(recs) != n.cfg.Hosts {
		panic(fmt.Sprintf("noc: %d recorders for %d hosts", len(recs), n.cfg.Hosts))
	}
	n.recs = recs
}

// recOf returns host h's recorder (nil when untraced).
func (n *Network) recOf(h int) *obs.Recorder {
	if n.recs == nil {
		return nil
	}
	return n.recs[h]
}

// nodeAt inverts nodeIndex.
func (n *Network) nodeAt(idx int32) NodeID {
	i := int(idx)
	return NodeID{Host: (i >> 1) / n.cfg.TilesPerHost, Tile: (i >> 1) % n.cfg.TilesPerHost,
		Kind: NodeKind(i & 1)}
}

// Register installs the delivery handler for node id.
func (n *Network) Register(id NodeID, h Handler) {
	idx := n.nodeIndex(id)
	if idx < 0 {
		panic(fmt.Sprintf("noc: %v outside the configured geometry", id))
	}
	if n.handlers[idx] != nil {
		panic(fmt.Sprintf("noc: duplicate handler for %v", id))
	}
	n.handlers[idx] = h
	// The one closure per node: unpacks the source word and forwards to the
	// registered handler. Every untraced delivery reuses it.
	n.deliver[idx] = func(src uint64, payload any) { h(unpackID(src), payload) }
}

// interHostOneWay is the inter-host traversal latency in cycles: one link
// for the switch star, the minimum ring distance times the link latency for
// the ring.
func (n *Network) interHostOneWay(src, dst int) sim.Time {
	link := sim.FromNanos(n.cfg.InterHostNs)
	if n.cfg.Topology != Ring {
		return link
	}
	d := src - dst
	if d < 0 {
		d = -d
	}
	if rev := n.cfg.Hosts - d; rev < d {
		d = rev
	}
	return sim.Time(d) * link
}

// Latency returns the zero-load latency between two nodes in cycles,
// excluding serialization and jitter. Exported for analytical checks in
// tests and for the Fig. 5 hop-count validation.
func (n *Network) Latency(from, to NodeID) sim.Time {
	if from.Host == to.Host {
		return sim.Time(n.cfg.meshHops(from.Tile, to.Tile)) * n.cfg.HopCycles
	}
	hops := n.cfg.meshHops(from.Tile, n.cfg.PortTile) + n.cfg.meshHops(n.cfg.PortTile, to.Tile)
	return sim.Time(hops)*n.cfg.HopCycles + n.interHostOneWay(from.Host, to.Host)
}

// serialization returns the cycles a message of the given size occupies an
// inter-host port: ceil(bytes / link bandwidth), computed in exact integer
// arithmetic when the bandwidth is a whole number of bytes per cycle (every
// Table 1 configuration), with a float ceil fallback for fractional
// bandwidths.
func (n *Network) serialization(bytes int) sim.Time {
	if n.linkWhole != 0 {
		return sim.Time((uint64(bytes) + n.linkWhole - 1) / n.linkWhole)
	}
	return sim.Time(math.Ceil(float64(bytes) / n.cfg.LinkBytesPerCycle))
}

// Send transmits a message of the given class and size from src to dst and
// invokes dst's handler with payload on arrival. Inter-host messages consume
// bandwidth on the source host's egress port (serializing one after another).
//
// The untraced path (no observability recorder, or this message not sampled)
// performs no allocation: delivery is a monomorphic event carrying the
// node's pre-built sim.DeliverFunc, the packed source, and the payload.
//
// Send must execute on the source host's engine — true for every protocol
// engine, whose components only send from their own node. A delivery to a
// host on another engine is filed into the arrival calendar, to be injected
// at the window barrier (Flush) that reaches its arrival time, instead of
// being scheduled immediately. Delivery jitter draws from the
// source host's engine PRNG, so each engine's jitter stream depends only on
// its own (deterministic) send order.
func (n *Network) Send(src, dst NodeID, class stats.MsgClass, bytes int, payload any) {
	if bytes <= 0 {
		panic(fmt.Sprintf("noc: message size %d must be positive", bytes))
	}
	idx := n.nodeIndex(dst)
	if idx < 0 || n.handlers[idx] == nil {
		panic(fmt.Sprintf("noc: no handler registered for %v", dst))
	}
	sh := src.Host
	eng := n.engines[sh]
	interHost := sh != dst.Host
	n.traffics[sh].Add(class, bytes, interHost)
	rec := n.recOf(sh)
	rec.CountMsg(class, bytes, interHost)

	delay, queueing := n.delay(eng, src, dst, bytes, interHost)
	if n.cfg.JitterCycles > 0 {
		delay += sim.Time(eng.Rand().Intn(n.cfg.JitterCycles + 1))
	}
	rec.ObserveLatency(class, delay)
	// Trace the whole hop under one sampling decision: the Send now, the
	// Link entry when the message queued for an inter-host port, and the
	// Deliver on arrival.
	traced := rec.Take()
	if traced {
		now := eng.Now()
		osrc, odst := src.Obs(), dst.Obs()
		rec.Record(obs.Event{At: now, Kind: obs.KSend, Src: osrc, Dst: odst,
			Class: class, Bytes: bytes, Dur: delay, Wait: queueing})
		if interHost && queueing > 0 {
			rec.Record(obs.Event{At: now + queueing, Kind: obs.KLink,
				Src: osrc, Dst: odst, Class: class, Bytes: bytes, Wait: queueing})
		}
	}
	if n.engines[dst.Host] != eng {
		n.seqs[sh]++
		at := eng.Now() + delay
		i := n.cal.slot(at)
		n.cal.slab[i] = xmsg{
			at: at, seq: n.seqs[sh], srcHost: int32(sh),
			dstIdx: int32(idx), traced: traced, src: packID(src),
			class: class, bytes: int32(bytes), dur: delay, payload: payload,
		}
		n.cal.place(i)
		return
	}
	if traced {
		eng.Schedule(delay, n.tracedArrival(&xmsg{dstIdx: int32(idx), src: packID(src),
			class: class, bytes: int32(bytes), dur: delay, payload: payload}))
		return
	}
	eng.ScheduleDeliver(delay, n.deliver[idx], packID(src), payload)
}

// delay computes a message's latency excluding jitter — mesh hops plus, for
// inter-host messages, the link traversal, serialization, and egress-port
// queueing — charging the egress port. The egress state is owned by the
// sending host, whose engine is eng.
func (n *Network) delay(eng *sim.Engine, src, dst NodeID, bytes int, interHost bool) (delay, queueing sim.Time) {
	delay = n.Latency(src, dst)
	if !interHost {
		return delay, 0
	}
	ser := n.serialization(bytes)
	now := eng.Now()
	eg := &n.egress[src.Host]
	start := now
	if eg.nextFree > start {
		start = eg.nextFree
	}
	eg.nextFree = start + ser
	queueing = start - now
	return delay + queueing + ser, queueing
}

// Flush implements sim.Exchanger: it injects every filed cross-host message
// with arrival time <= horizon into its destination shard's engine, in
// (arrival time, source host, per-host sequence) order — a total order,
// since the sequence is unique per source host — and returns how many it
// injected and the wire bytes they carried. Later messages stay filed for a
// future window. Flush runs at the window barrier, between windows, so it
// may touch every engine.
func (n *Network) Flush(horizon sim.Time) (injected, bytes int) {
	c := n.cal
	// Draining leaves base alone: every chained arrival precedes every
	// overflow arrival, so an overflow arrival comes due only once the ring
	// is empty, and the jump that reaches it links it first.
	for {
		if c.ringLen == 0 {
			if len(c.over) == 0 || c.slab[c.over[0]].at > horizon {
				break
			}
			c.advance(c.slab[c.over[0]].at) // jump the empty ring to the next overflow arrival
		}
		b, at := c.first()
		if at > horizon {
			break
		}
		for i := c.head[b]; i != 0; {
			m := &c.slab[i]
			n.inject(m)
			injected++
			bytes += int(m.bytes)
			m.payload = nil
			c.free = append(c.free, i)
			c.ringLen--
			i = m.next
		}
		c.head[b], c.tail[b] = 0, 0
		c.occupied[b>>6] &^= 1 << (uint(b) & 63)
	}
	if horizon >= c.base {
		c.advance(horizon + 1)
	}
	return injected, bytes
}

// Pending implements sim.Exchanger: how many cross-host messages are filed
// and the earliest arrival among them. Overflow arrivals all lie beyond
// every chained one, so it reads the ring's first bucket or the heap top.
func (n *Network) Pending() (int, sim.Time) {
	c := n.cal
	switch {
	case c.ringLen > 0:
		_, at := c.first()
		return c.ringLen + len(c.over), at
	case len(c.over) > 0:
		return len(c.over), c.slab[c.over[0]].at
	}
	return 0, 0
}

// Calendar geometry: calSize consecutive cycles of arrival buckets. Egress
// queueing parks some arrivals thousands of cycles past the window horizon;
// a 4096-cycle ring holds about 99 % of them for 32 KB of bucket heads and
// tails, and the rest wait in the overflow heap.
const (
	calBits = 12
	calSize = 1 << calBits
	calMask = calSize - 1
)

// calendar buffers cross-host messages between window barriers (R. Brown's
// calendar queue). Send copies each message once into a slab slot, chained
// into the bucket of its arrival cycle when that lies in [base,
// base+calSize), and otherwise kept in a min-heap on arrival time until base
// comes within calSize of it. Each chain is kept in (srcHost, seq) order, so
// walking buckets in time order yields the injection order without sorting.
// Slab slot 0 is the nil link.
type calendar struct {
	base     sim.Time // arrival cycle of the ring's first bucket
	ringLen  int      // messages chained in buckets
	head     [calSize]int32
	tail     [calSize]int32
	occupied [calSize / 64]uint64
	slab     []xmsg
	free     []int32 // recycled slab slots
	over     []int32 // overflow slab slots: a binary min-heap on arrival time
}

// before reports whether a injects ahead of b in the same arrival cycle.
func (a *xmsg) before(b *xmsg) bool {
	return a.srcHost < b.srcHost || a.srcHost == b.srcHost && a.seq < b.seq
}

// slot returns a free slab slot for a message arriving at cycle at; the
// caller stores the message there and files it with place. The conservative
// window bound puts every arrival after the last flushed horizon, so at or
// after base: during a window, base is the window's deadline plus one.
func (c *calendar) slot(at sim.Time) int32 {
	if at < c.base {
		panic(fmt.Sprintf("noc: cross-host arrival at %d precedes the flushed horizon %d", at, c.base-1))
	}
	if k := len(c.free); k > 0 {
		i := c.free[k-1]
		c.free = c.free[:k-1]
		return i
	}
	c.slab = append(c.slab, xmsg{})
	return int32(len(c.slab) - 1)
}

// place chains slot i into its bucket, or pushes it on the overflow heap.
// Shards run a window in source-host order, each sending in seq order, so a
// new message usually sorts last and is appended. A later window, or the
// heap (which releases same-cycle arrivals in any order), can bring a lower
// source host to a bucket; that message is walked into place.
func (c *calendar) place(i int32) {
	m := &c.slab[i]
	if m.at >= c.base+calSize {
		c.push(i)
		return
	}
	b := int(m.at) & calMask
	m.next = 0
	switch t := c.tail[b]; {
	case t == 0:
		c.head[b], c.tail[b] = i, i
		c.occupied[b>>6] |= 1 << (uint(b) & 63)
	case c.slab[t].before(m):
		c.slab[t].next, c.tail[b] = i, i
	default:
		p := &c.head[b]
		for c.slab[*p].before(m) {
			p = &c.slab[*p].next
		}
		m.next, *p = *p, i
	}
	c.ringLen++
}

// advance moves the ring's first cycle to base, which must not pass any
// chained arrival, and links the overflow arrivals the ring now covers.
func (c *calendar) advance(base sim.Time) {
	c.base = base
	for len(c.over) > 0 && c.slab[c.over[0]].at < base+calSize {
		c.place(c.pop())
	}
}

// first returns the bucket of the earliest chained arrival and its cycle.
// Chained arrivals lie in [base, base+calSize), so the circular bitmap scan
// from base's bucket visits them in time order. ringLen must be positive.
func (c *calendar) first() (int, sim.Time) {
	start := int(c.base) & calMask
	w := start >> 6
	word := c.occupied[w] &^ (1<<(uint(start)&63) - 1)
	for word == 0 {
		w = (w + 1) & (calSize/64 - 1)
		word = c.occupied[w]
	}
	b := w<<6 + bits.TrailingZeros64(word)
	return b, c.base + sim.Time((b-start)&calMask)
}

// push and pop maintain the overflow heap.
func (c *calendar) push(i int32) {
	at := c.slab[i].at
	h := append(c.over, i)
	j := len(h) - 1
	for ; j > 0 && c.slab[h[(j-1)/2]].at > at; j = (j - 1) / 2 {
		h[j] = h[(j-1)/2]
	}
	h[j] = i
	c.over = h
}

func (c *calendar) pop() int32 {
	h := c.over
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	c.over = h
	at := c.slab[last].at
	j := 0
	for k := 1; k < len(h); k = 2*j + 1 {
		if k+1 < len(h) && c.slab[h[k+1]].at < c.slab[h[k]].at {
			k++
		}
		if at <= c.slab[h[k]].at {
			break
		}
		h[j], j = h[k], k
	}
	if j < len(h) {
		h[j] = last
	}
	return top
}

// inject schedules one flushed cross-host arrival on its destination shard.
// Untraced deliveries stay monomorphic and allocation-free.
func (n *Network) inject(m *xmsg) {
	eng := n.engines[n.nodeAt(m.dstIdx).Host]
	if !m.traced {
		eng.ScheduleDeliverAt(m.at, n.deliver[m.dstIdx], m.src, m.payload)
		return
	}
	eng.ScheduleAt(m.at, n.tracedArrival(m))
}

// tracedArrival returns the arrival event of a sampled message: it records
// the KDeliver into the destination host's recorder (the source host's
// recorder already holds the matching KSend), then runs the handler. The
// closure is allocated and copies what it needs, so m may be reused once
// this returns.
func (n *Network) tracedArrival(m *xmsg) func() {
	dst := n.nodeAt(m.dstIdx)
	eng, rec, h := n.engines[dst.Host], n.recOf(dst.Host), n.handlers[m.dstIdx]
	src := unpackID(m.src)
	osrc, odst := src.Obs(), dst.Obs()
	class, bytes, dur, payload := m.class, int(m.bytes), m.dur, m.payload
	return func() {
		rec.Record(obs.Event{At: eng.Now(), Kind: obs.KDeliver,
			Src: osrc, Dst: odst, Class: class, Bytes: bytes, Dur: dur})
		h(src, payload)
	}
}

// LocalDir returns the directory slice co-located with a core: the same tile.
func LocalDir(core NodeID) NodeID { return NodeID{Host: core.Host, Tile: core.Tile, Kind: Dir} }

// SortIDs orders node IDs deterministically (host, then tile, then kind).
// Protocols must use it before iterating map-keyed node sets that lead to
// Send calls: delivery jitter consumes PRNG state, so send order must be
// reproducible.
func SortIDs(ids []NodeID) {
	slices.SortFunc(ids, func(a, b NodeID) int {
		if c := cmp.Compare(a.Host, b.Host); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Tile, b.Tile); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
}
