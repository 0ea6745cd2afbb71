package noc

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"cord/internal/sim"
	"cord/internal/stats"
)

// flushRef is one buffered cross-host message as the reference merge sees
// it: the (at, srcHost, seq) injection key, the destination host, and the
// payload id the delivery handler reports back.
type flushRef struct {
	at    sim.Time
	src   int32
	seq   uint64
	dst   int
	id    int
	filed sim.Time // the horizon of the Flush that first saw it
}

type flushDelivery struct {
	at sim.Time
	id int
}

// TestFlushMatchesSortedReference drives Network.Flush directly, the way
// sim.Cluster does (flush to a deadline, run every shard to it, census flush
// at the same deadline), against a reference that sorts everything buffered
// by (at, srcHost, seq). Six hosts send bursts over a 1 B/cycle link, so
// egress queueing parks arrivals thousands of cycles past the horizon, and
// the horizon advances in random strides that include jumps wider than 4096
// cycles. After every Flush the remaining count and earliest arrival must
// match the reference, and each destination shard must deliver exactly the
// due messages in reference order: a shard's same-cycle deliveries fire in
// injection order, so this pins the barrier's tie-break.
func TestFlushMatchesSortedReference(t *testing.T) {
	const ring = 4096 // the arrival calendar's span; the workload must reach past it
	cfg := CXLConfig()
	cfg.Hosts = 6
	cfg.JitterCycles = 24
	cfg.LinkBytesPerCycle = 1
	cl := sim.NewCluster(7, cfg.Hosts, cfg.Lookahead())
	traffics := make([]*stats.Traffic, cfg.Hosts)
	for i := range traffics {
		traffics[i] = &stats.Traffic{}
	}
	n := NewPartitioned(cl.Engines(), cfg, traffics)
	got := make([][]flushDelivery, cfg.Hosts)
	for h := 0; h < cfg.Hosts; h++ {
		eng := cl.Engine(h)
		for tile := 0; tile < cfg.TilesPerHost; tile++ {
			n.Register(CoreID(h, tile), func(NodeID, any) { t.Fatal("delivery to a core") })
			n.Register(DirID(h, tile), func(_ NodeID, p any) {
				got[h] = append(got[h], flushDelivery{at: eng.Now(), id: p.(int)})
			})
		}
	}

	rng := rand.New(rand.NewSource(42))
	var pending []flushRef
	ids := 0
	flushes := 0
	var horizon sim.Time
	maxLead, farInjected := sim.Time(0), 0
	// gaps counts due arrivals more than a ring past the previous due one (or
	// the previous horizon); lulls counts flushes that leave only such
	// arrivals buffered. Both force a calendar to reach its overflow store
	// with nothing nearer buffered.
	gaps, lulls := 0, 0
	last := sim.Time(0)

	// flush harvests the outboxes into the reference, runs Flush(h) and
	// checks it, then runs every shard to h and checks what was delivered.
	flush := func(h sim.Time) {
		t.Helper()
		for sh := range n.outbox {
			for _, m := range n.outbox[sh] {
				pending = append(pending, flushRef{at: m.at, src: m.srcHost, seq: m.seq,
					dst: n.nodeAt(m.dstIdx).Host, id: m.payload.(int), filed: horizon})
				if lead := m.at - horizon; lead > maxLead {
					maxLead = lead
				}
			}
		}
		flushes++
		slices.SortFunc(pending, func(a, b flushRef) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			if c := cmp.Compare(a.src, b.src); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		want := make([][]flushDelivery, cfg.Hosts)
		keep := pending[:0:0]
		for _, r := range pending {
			if r.at <= h {
				want[r.dst] = append(want[r.dst], flushDelivery{at: r.at, id: r.id})
				if r.at-last > ring {
					gaps++
				}
				last = r.at
				if r.at-r.filed > ring {
					farInjected++
				}
			} else {
				keep = append(keep, r)
			}
		}
		pending = keep
		last = max(last, h)
		if len(pending) > 0 && pending[0].at > h+ring {
			lulls++
		}
		remaining, earliest := n.Flush(h)
		wantEarliest := sim.Time(0)
		if len(pending) > 0 {
			wantEarliest = pending[0].at
		}
		if remaining != len(pending) || (remaining > 0 && earliest != wantEarliest) {
			t.Fatalf("Flush(%d) #%d = (%d, %d), want (%d, %d)",
				h, flushes, remaining, earliest, len(pending), wantEarliest)
		}
		for _, e := range cl.Engines() {
			if err := e.RunUntil(h); err != nil {
				t.Fatal(err)
			}
		}
		for dst := range got {
			if !slices.Equal(got[dst], want[dst]) {
				t.Fatalf("Flush(%d) #%d: host %d delivered %v, want %v", h, flushes, dst, got[dst], want[dst])
			}
			got[dst] = got[dst][:0]
		}
	}

	w := cfg.Lookahead()
	sizes := []int{8, 16, 64}
	for step := 0; step < 600; step++ {
		stride := 1 + sim.Time(rng.Intn(int(w)))
		switch rng.Intn(25) {
		case 0:
			stride = ring + 1 + sim.Time(rng.Intn(2*ring)) // wider than the ring
		case 1:
			stride = 0 // another census at the unchanged horizon
		}
		// Every 100 steps, a lull: one jumbo message whose serialization
		// alone outlasts the ring, a wait for the queues to drain, and a
		// jump past it.
		lull := step%100 >= 70
		switch step % 100 {
		case 70:
			src := rng.Intn(cfg.Hosts)
			cl.Engine(src).ScheduleAt(horizon+1, func() {
				ids++
				n.Send(CoreID(src, 0), DirID((src+1)%cfg.Hosts, 0), stats.ClassRelaxedData, 2*ring, ids)
			})
			stride = 1
		case 98:
			stride = 4 * ring
		}
		next := horizon + stride
		if stride > 0 && !lull {
			// Sends in (next-W, next] arrive after next: the conservative
			// window bound every Flush caller keeps.
			lo := max(horizon+1, next-w+1)
			for b := rng.Intn(cfg.Hosts + 1); b > 0; b-- {
				src := rng.Intn(cfg.Hosts)
				k := 1 + rng.Intn(6)
				if rng.Intn(12) == 0 {
					k = 40 + rng.Intn(80) // a burst that queues past the ring
				}
				at := lo + sim.Time(rng.Intn(int(next-lo+1)))
				cl.Engine(src).ScheduleAt(at, func() {
					for i := 0; i < k; i++ {
						dst := (src + 1 + rng.Intn(cfg.Hosts-1)) % cfg.Hosts
						ids++
						n.Send(CoreID(src, rng.Intn(cfg.TilesPerHost)), DirID(dst, rng.Intn(cfg.TilesPerHost)),
							stats.ClassRelaxedData, sizes[rng.Intn(len(sizes))], ids)
					}
				})
			}
		}
		flush(next) // the pre-window barrier
		flush(next) // the census after the window
		horizon = next
	}
	// Drain what is left with one jump past every arrival.
	flush(horizon + 1<<20)
	if len(pending) != 0 {
		t.Fatalf("%d messages still buffered after the final drain", len(pending))
	}
	if maxLead <= 2*ring || farInjected == 0 || gaps == 0 || lulls == 0 || horizon < 8*ring {
		t.Fatalf("workload too gentle: max lead %d, %d injected past the ring, %d gaps, %d lulls, horizon %d",
			maxLead, farInjected, gaps, lulls, horizon)
	}
	t.Logf("%d messages, %d flushes, max lead %d cycles, %d injected past the ring, %d gaps, %d lulls, horizon %d",
		ids, flushes, maxLead, farInjected, gaps, lulls, horizon)
}
