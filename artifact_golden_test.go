package cord

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	cordp "cord/internal/proto/cord"
	"cord/internal/proto/core"
	"cord/internal/proto/mp"
	"cord/internal/proto/so"
	"cord/internal/proto/wb"
)

var updateArtifacts = flag.Bool("update", false, "rewrite testdata/artifacts.sha256")

// The determinism battery compares runs within one build. This test pins the
// artifacts themselves — SHA-256 digests of the JSONL trace, the metrics JSON
// and the stats JSON — across builds, so a refactor that claims to change no
// behavior can show it reproduces its parent byte for byte. Regenerate with
// `go test -run TestArtifactGolden -update .` only for an intended change.

const artifactGoldenPath = "testdata/artifacts.sha256"

// artifactMix is one workload that drives every op path the adapters
// implement: relaxed write-through stores (write-combined and spread over
// several home directories, so releases need notifications), relaxed and
// release far atomics, release write-through flags, write-back stores of
// both orderings, acquires on other cores' flags, release and full barriers.
func artifactMix(hosts, tiles, rounds int) ([]noc.NodeID, []proto.Program) {
	n := hosts * tiles
	cores := make([]noc.NodeID, 0, n)
	for h := 0; h < hosts; h++ {
		for t := 0; t < tiles; t++ {
			cores = append(cores, noc.CoreID(h, t))
		}
	}
	const (
		dataOff  = 0x1000
		flagOff  = 0x100000
		wbOff    = 0x200000
		wbFlag   = 0x300000
		counter  = 0x400000
		perCore  = 0x1000
		lineSize = 64
	)
	progs := make([]proto.Program, n)
	for i, id := range cores {
		var p proto.Program
		nb := (i + 1) % n
		for r := 1; r <= rounds; r++ {
			for k := 0; k < 3; k++ {
				h, t := (id.Host+k)%hosts, (id.Tile+k)%tiles
				a := ComposeAddr(h, t, dataOff+uint64(i*perCore+k*lineSize))
				p = append(p, proto.StoreRelaxed(a, 64))
				if k == 0 {
					p = append(p, proto.StoreRelaxed(a, 64)) // write-combines
				}
			}
			// Three stores then an atomic to one directory, and four stores
			// to another, overflow a two-bit store counter on either path.
			for k := 0; k < 3; k++ {
				p = append(p, proto.StoreRelaxed(ComposeAddr(0, 1%tiles, dataOff+uint64(i*perCore+(4+k)*lineSize)), 8))
			}
			p = append(p, proto.FetchAdd(ComposeAddr(0, 1%tiles, counter), 1, proto.Relaxed))
			for k := 0; k < 4; k++ {
				p = append(p, proto.StoreRelaxed(ComposeAddr(id.Host, id.Tile, dataOff+uint64(i*perCore+(8+k)*lineSize)), 8))
			}
			p = append(p, proto.FetchAdd(ComposeAddr(0, 1%tiles, counter), 1, proto.Relaxed))
			for k := 0; k < 2; k++ {
				h, t := (id.Host+k+1)%hosts, (id.Tile+2*k)%tiles
				p = append(p, proto.StoreWBRelaxed(ComposeAddr(h, t, wbOff+uint64(i*perCore+k*lineSize)), 64))
			}
			p = append(p,
				proto.StoreRelease(ComposeAddr(id.Host, id.Tile, flagOff+uint64(i*perCore)), 8, uint64(r)),
				// Two directories' counters behind an unacknowledged release.
				proto.StoreRelaxed(ComposeAddr(id.Host, (id.Tile+1)%tiles, dataOff+uint64(i*perCore+12*lineSize)), 8),
				proto.StoreRelaxed(ComposeAddr((id.Host+1)%hosts, (id.Tile+2)%tiles, dataOff+uint64(i*perCore+13*lineSize)), 8),
				proto.AcquireLoad(ComposeAddr(cores[nb].Host, cores[nb].Tile, flagOff+uint64(nb*perCore)), uint64(r)),
				// A barrier over a dirty epoch behind an unacknowledged release.
				proto.StoreRelease(ComposeAddr(id.Host, id.Tile, flagOff+uint64(i*perCore+lineSize)), 8, uint64(r)),
				proto.StoreRelaxed(ComposeAddr((id.Host+1)%hosts, (id.Tile+1)%tiles, dataOff+uint64(i*perCore+lineSize)), 64),
				proto.Barrier(proto.Release),
				proto.Barrier(proto.Acquire),
				proto.StoreRelaxed(ComposeAddr(id.Host, (id.Tile+1)%tiles, dataOff+uint64(i*perCore+14*lineSize)), 8),
				proto.FetchAdd(ComposeAddr(hosts-1, 0, counter), 1, proto.Release),
				// A write-back release behind an unacknowledged write-back,
				// then one behind a dirty epoch.
				proto.StoreWBRelaxed(ComposeAddr((id.Host+1)%hosts, (id.Tile+3)%tiles, wbOff+uint64(i*perCore+2*lineSize)), 64),
				proto.StoreWBRelease(ComposeAddr(id.Host, (id.Tile+1)%tiles, wbFlag+uint64(i*perCore)), 8, uint64(r)),
				proto.StoreRelaxed(ComposeAddr(id.Host, (id.Tile+2)%tiles, dataOff+uint64(i*perCore+3*lineSize)), 64),
				proto.StoreWBRelease(ComposeAddr(id.Host, (id.Tile+3)%tiles, wbFlag+uint64(i*perCore+lineSize)), 8, uint64(r)),
				proto.Compute(20),
			)
			if r%2 == 0 {
				p = append(p, proto.Barrier(proto.SeqCst))
			}
		}
		progs[i] = p
	}
	return cores, progs
}

type artifactCase struct {
	name    string
	b       proto.Builder
	mode    proto.Mode
	hosts   int
	workers int
	// sample is the recorder's 1-in-n sampling rate (0 records every
	// event). Sampled traces change whenever the order of Take calls does,
	// which full traces cannot see.
	sample int
}

func artifactCases() []artifactCase {
	type named struct {
		name string
		mk   func() proto.Builder
	}
	builders := []named{
		{"CORD", func() proto.Builder { return cordp.New() }},
		{"SO", func() proto.Builder { return so.New() }},
		{"MP", func() proto.Builder { return mp.New() }},
		{"WB", func() proto.Builder { return wb.New() }},
		{"CORD-tiny-tables", func() proto.Builder {
			return &cordp.Protocol{Cfg: cordp.DefaultConfig(), Variants: []core.Variant{core.VariantTinyTables}}
		}},
		{"CORD-no-notifications", func() proto.Builder {
			return &cordp.Protocol{Cfg: cordp.DefaultConfig(), Variants: []core.Variant{core.VariantNoNotifications}}
		}},
		{"CORD-no-notifications-tiny-tables", func() proto.Builder {
			return &cordp.Protocol{Cfg: cordp.DefaultConfig(),
				Variants: []core.Variant{core.VariantNoNotifications, core.VariantTinyTables}}
		}},
		// Two-bit epochs and store counters: counter-overflow flushes and
		// epoch-window stalls.
		{"CORD-narrow", func() proto.Builder {
			cfg := cordp.DefaultConfig()
			cfg.EpochBits, cfg.CntBits = 2, 2
			return &cordp.Protocol{Cfg: cfg}
		}},
		{"SEQ-3", func() proto.Builder { return cordp.NewSeq(3) }},
		{"SO-storebuf-2", func() proto.Builder { return &so.Protocol{Cfg: so.Config{StoreBufCap: 2}} }},
		{"WB-1-MSHR", func() proto.Builder { return &wb.Protocol{Cfg: wb.Config{MSHRs: 1}} }},
	}
	var cs []artifactCase
	for _, b := range builders {
		for _, mode := range []proto.Mode{proto.RC, proto.TSO} {
			for _, topo := range [][2]int{{1, 1}, {2, 2}} {
				cs = append(cs, artifactCase{
					name: fmt.Sprintf("%s/%v/hosts=%d", b.name, mode, topo[0]),
					b:    b.mk(), mode: mode, hosts: topo[0], workers: topo[1],
				})
			}
		}
	}
	for _, b := range builders[:4] {
		for _, mode := range []proto.Mode{proto.RC, proto.TSO} {
			cs = append(cs, artifactCase{
				name: fmt.Sprintf("%s/%v/hosts=1/sample=3", b.name, mode),
				b:    b.mk(), mode: mode, hosts: 1, workers: 1, sample: 3,
			})
		}
	}
	return cs
}

// runArtifactCase simulates the mix fully traced and returns the digests of
// its three exported artifacts.
func runArtifactCase(t *testing.T, c artifactCase) [3]string {
	t.Helper()
	s := CXLSystem()
	s.Hosts = c.hosts
	s.CoresPerHost = 4
	nc, err := s.netConfig()
	if err != nil {
		t.Fatal(err)
	}
	cores, progs := artifactMix(nc.Hosts, nc.TilesPerHost, 4)
	rec := obs.New()
	if c.sample > 0 {
		rec.SetSample(c.sample)
	}
	sys := proto.NewSystem(s.Seed, nc, c.mode)
	sys.Workers = c.workers
	sys.Observe(rec)
	run, err := proto.Exec(sys, c.b, cores, progs)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	tr, me, st := artifactsOf(t, &Result{run: run}, &Observation{rec: rec})
	if len(tr) == 0 {
		t.Fatalf("%s: no events recorded", c.name)
	}
	var out [3]string
	for i, b := range [][]byte{tr, me, st} {
		sum := sha256.Sum256(b)
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

var artifactKinds = [3]string{"trace", "metrics", "stats"}

func readArtifactGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(artifactGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestArtifactGolden -update .` to create)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", artifactGoldenPath, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestArtifactGolden checks every protocol x consistency mode x {1 host
// serial, 2 hosts on 2 workers}, plus the four base protocols' 1-host runs
// sampled 1-in-3, against the committed digests.
func TestArtifactGolden(t *testing.T) {
	cases := artifactCases()
	got := make([][3]string, len(cases))
	for i, c := range cases {
		got[i] = runArtifactCase(t, c)
	}
	if *updateArtifacts {
		var sb strings.Builder
		for i, c := range cases {
			for k, kind := range artifactKinds {
				fmt.Fprintf(&sb, "%s  %s/%s\n", got[i][k], c.name, kind)
			}
		}
		if err := os.MkdirAll(filepath.Dir(artifactGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readArtifactGolden(t)
	if n := len(cases) * len(artifactKinds); len(want) != n {
		t.Errorf("%s has %d digests, want %d", artifactGoldenPath, len(want), n)
	}
	for i, c := range cases {
		for k, kind := range artifactKinds {
			key := c.name + "/" + kind
			if w := want[key]; got[i][k] != w {
				t.Errorf("%s: sha256 %s, golden %s", key, got[i][k], w)
			}
		}
	}
}
