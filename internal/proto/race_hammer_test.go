package proto_test

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/workload"
)

// TestPartitionedExecRaceHammer runs full protocol simulations on the
// partitioned engine at 8 workers with randomized seeds, for the race
// detector: every window barrier, outbox flush, and per-shard recorder in
// the real protocol stack gets exercised under true concurrency (the CI
// race job runs this with -short; the nightly full-suite run expands it).
// Each seed is also run serially and the complete run statistics compared,
// extending the fixed-seed determinism battery to arbitrary seeds — a
// failure log includes the seed for reproduction.
func TestPartitionedExecRaceHammer(t *testing.T) {
	// Every protocol runs even in -short: at 8 workers, messages recycle
	// through a shared pool, freed on the shard that receives them, often
	// not the one that allocated them.
	builders := adapterBuilders()
	iters := 3 * len(builders)
	if testing.Short() {
		iters = len(builders)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for it := 0; it < iters; it++ {
		seed := rng.Int63()
		b := builders[it%len(builders)]
		nc := noc.CXLConfig()
		nc.TilesPerHost = 2
		nc.MeshCols = 2
		p := workload.ATA(nc.Hosts, 4)
		cores, progs, err := p.Programs(nc)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) []byte {
			sys := proto.NewSystem(seed, nc, proto.RC)
			sys.Workers = workers
			r, err := proto.Exec(sys, b, cores, progs)
			if err != nil {
				t.Fatalf("seed %d %s workers=%d: %v", seed, b.Name(), workers, err)
			}
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		serial, parallel := run(1), run(8)
		if string(serial) != string(parallel) {
			t.Fatalf("seed %d %s: 8-worker stats diverge from serial\nserial:   %s\nparallel: %s",
				seed, b.Name(), serial, parallel)
		}
	}
}
