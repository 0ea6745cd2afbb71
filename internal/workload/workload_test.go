package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/sim"
)

func nc() noc.Config {
	c := noc.CXLConfig()
	c.JitterCycles = 0
	return c
}

func TestAllAppsValidate(t *testing.T) {
	for _, p := range Apps() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.RegionBytesNeeded() > MaxRegionBytes {
			t.Errorf("%s: region %d exceeds budget", p.Name, p.RegionBytesNeeded())
		}
	}
	if len(Apps()) != 10 {
		t.Fatalf("Apps() = %d entries, want the paper's 10", len(Apps()))
	}
}

func TestAppLookup(t *testing.T) {
	p, err := App("MOCFE")
	if err != nil {
		t.Fatal(err)
	}
	if p.Fanout != fanHigh {
		t.Fatalf("MOCFE fanout = %d, want high (%d)", p.Fanout, fanHigh)
	}
	if _, err := App("nope"); err == nil {
		t.Fatal("unknown app should error")
	}
	if len(AppNames()) != 10 {
		t.Fatal("AppNames should list 10 apps")
	}
}

func TestTQHMarkedMPIncompatible(t *testing.T) {
	p, err := App("TQH")
	if err != nil {
		t.Fatal(err)
	}
	if !p.MPIncompatible {
		t.Fatal("TQH must be flagged MP-incompatible (§3.2)")
	}
	for _, a := range Apps() {
		if a.Name != "TQH" && a.MPIncompatible {
			t.Errorf("%s wrongly flagged MP-incompatible", a.Name)
		}
	}
}

func TestProgramsShape(t *testing.T) {
	p := Micro(64, 1024, 3, 5)
	cores, progs, err := p.Programs(nc())
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 1 || len(progs) != 1 {
		t.Fatalf("producer-only: %d cores", len(cores))
	}
	rlx, rel := progs[0].Stores()
	// 1024/64 = 16 stores per partner x 3 partners x 5 rounds.
	if rlx != 16*3*5 {
		t.Fatalf("relaxed = %d, want %d", rlx, 16*3*5)
	}
	// Fig. 5's pattern: one Release per round (to the last directory).
	if rel != 5 {
		t.Fatalf("releases = %d, want 5", rel)
	}
	if err := progs[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppProgramsValidateAndBalance(t *testing.T) {
	for _, p := range Apps() {
		cores, progs, err := p.Programs(nc())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(cores) != p.Hosts {
			t.Fatalf("%s: %d cores, want %d", p.Name, len(cores), p.Hosts)
		}
		for i, prog := range progs {
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s rank %d: %v", p.Name, i, err)
			}
		}
		// Symmetric ranks: identical op counts.
		for i := 1; i < len(progs); i++ {
			if len(progs[i]) != len(progs[0]) {
				t.Fatalf("%s: rank %d has %d ops, rank 0 has %d",
					p.Name, i, len(progs[i]), len(progs[0]))
			}
		}
	}
}

func TestProgramsDeterministic(t *testing.T) {
	p, _ := App("CMC-2D") // uses sampled sync sizes
	_, a, err := p.Programs(nc())
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := p.Programs(nc())
	if err != nil {
		t.Fatal(err)
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("rank %d: %d vs %d ops", r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d op %d differs", r, i)
			}
		}
	}
}

func TestRegionsDisjointAcrossPairs(t *testing.T) {
	// No two (src,dst) pairs may share a buffer or flag address.
	tiles := 8
	seen := make(map[memsys.Addr]string)
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst {
				continue
			}
			r := dataRegion(src, dst, tiles)
			f := flagAddr(src, dst, tiles)
			key := func(a memsys.Addr) string { return a.String() }
			if prev, dup := seen[r]; dup {
				t.Fatalf("region collision: %s vs %d->%d", prev, src, dst)
			}
			seen[r] = key(r)
			if prev, dup := seen[f]; dup {
				t.Fatalf("flag collision: %s vs %d->%d", prev, src, dst)
			}
			seen[f] = key(f)
			if f.Host() != dst || r.Host() != dst {
				t.Fatal("buffers must live at the destination host")
			}
		}
	}
}

func TestFanoutDirectoriesMatchPattern(t *testing.T) {
	// With fanout f, one round's relaxed stores must touch exactly f
	// distinct directories, and the release flags the same ones.
	p := Micro(64, 256, 3, 1)
	_, progs, err := p.Programs(nc())
	if err != nil {
		t.Fatal(err)
	}
	m := memsys.NewMap(8, 8)
	dirs := make(map[noc.NodeID]bool)
	for _, op := range progs[0] {
		if op.Kind == proto.OpStoreWT {
			dirs[m.HomeOf(op.Addr)] = true
		}
	}
	if len(dirs) != 3 {
		t.Fatalf("touched %d directories, want 3", len(dirs))
	}
}

func TestWriteDataLocalityParameters(t *testing.T) {
	p := Pattern{RelaxedBytes: 4, LineUtil: 16, Rewrite: 2}
	prog := p.writeData(nil, memsys.Compose(1, 0, 0), 64, 1)
	// 64/4 = 16 unique stores x 2 rewrites.
	if len(prog) != 32 {
		t.Fatalf("ops = %d, want 32", len(prog))
	}
	lines := make(map[memsys.Addr]bool)
	for _, op := range prog {
		lines[op.Addr.Line()] = true
	}
	// 16 unique words at 4 words per line (LineUtil 16B) = 4 lines.
	if len(lines) != 4 {
		t.Fatalf("lines touched = %d, want 4", len(lines))
	}
}

func TestScatteredWritesTouchOneWordPerLine(t *testing.T) {
	p := Pattern{RelaxedBytes: 4, LineUtil: 4, Rewrite: 1}
	prog := p.writeData(nil, memsys.Compose(1, 0, 0), 40, 1)
	lines := make(map[memsys.Addr]bool)
	for _, op := range prog {
		lines[op.Addr.Line()] = true
	}
	if len(lines) != 10 {
		t.Fatalf("lines = %d, want 10 (fully scattered)", len(lines))
	}
}

func TestSyncSizeSampling(t *testing.T) {
	p, _ := App("CR") // 8 .. 2048
	_, progs, err := p.Programs(nc())
	if err != nil {
		t.Fatal(err)
	}
	// Count relaxed stores per round: sizes must vary across rounds.
	counts := make(map[int]int)
	cur := 0
	for _, op := range progs[0] {
		switch {
		case op.Kind == proto.OpStoreWT && op.Ord == proto.Relaxed:
			cur++
		case op.Kind == proto.OpStoreWT && op.Ord == proto.Release:
			counts[cur]++
			cur = 0
		}
	}
	if len(counts) < 3 {
		t.Fatalf("sampled sync sizes show %d distinct round shapes, want variety", len(counts))
	}
}

func TestValidateRejectsBadPatterns(t *testing.T) {
	bad := []Pattern{
		{Name: "x", Hosts: 1, Rounds: 1, RelaxedBytes: 8, SyncBytes: 8, Fanout: 1, Rewrite: 1, LineUtil: 64},
		{Name: "x", Hosts: 4, Rounds: 0, RelaxedBytes: 8, SyncBytes: 8, Fanout: 1, Rewrite: 1, LineUtil: 64},
		{Name: "x", Hosts: 4, Rounds: 1, RelaxedBytes: 8, SyncBytes: 8, Fanout: 4, Rewrite: 1, LineUtil: 64},
		{Name: "x", Hosts: 4, Rounds: 1, RelaxedBytes: 8, SyncBytes: 8, Fanout: 1, Rewrite: 0, LineUtil: 64},
		{Name: "x", Hosts: 4, Rounds: 1, RelaxedBytes: 64, SyncBytes: 8, SyncBytesMax: 4, Fanout: 1, Rewrite: 1, LineUtil: 64},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: accepted invalid pattern", i)
		}
	}
}

// TestValidateArms covers each Validate arm with a named mutation of one
// known-good pattern, so a new arm without a row here stands out.
func TestValidateArms(t *testing.T) {
	good := func() Pattern {
		return Pattern{Name: "x", Hosts: 4, Rounds: 1, RelaxedBytes: 8,
			SyncBytes: 8, Fanout: 1, Rewrite: 1, LineUtil: 64}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("base pattern invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Pattern)
		ok     bool
	}{
		{"SyncBytesMax below SyncBytes", func(p *Pattern) { p.SyncBytes, p.SyncBytesMax = 64, 8 }, false},
		{"SyncBytesMax equal to SyncBytes", func(p *Pattern) { p.SyncBytes, p.SyncBytesMax = 64, 64 }, true},
		{"SyncBytesMax zero means fixed size", func(p *Pattern) { p.SyncBytesMax = 0 }, true},
		{"RanksPerHost negative", func(p *Pattern) { p.RanksPerHost = -1 }, false},
		{"RanksPerHost above table partition", func(p *Pattern) { p.RanksPerHost = 9 }, false},
		{"RanksPerHost at bound", func(p *Pattern) { p.RanksPerHost = 8 }, true},
		{"RanksPerHost zero defaults to one", func(p *Pattern) { p.RanksPerHost = 0 }, true},
		{"ComputeCycles wrapped negative", func(p *Pattern) { p.ComputeCycles = sim.Time(uint64(1<<63) + 100) }, false},
		{"ComputeCycles at bound", func(p *Pattern) { p.ComputeCycles = maxComputeCycles }, true},
	}
	for _, tc := range cases {
		p := good()
		tc.mutate(&p)
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestATAShape(t *testing.T) {
	p := ATA(8, 10)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Fanout != 7 || p.SyncBytes != 8 {
		t.Fatal("ATA must broadcast 8B to all 7 partners")
	}
}

func TestStorageAppsClamp(t *testing.T) {
	for _, hosts := range []int{2, 4, 8} {
		apps := StorageApps(hosts)
		if len(apps) != 4 {
			t.Fatalf("StorageApps(%d) = %d entries, want 4", hosts, len(apps))
		}
		for _, p := range apps {
			if err := p.Validate(); err != nil {
				t.Errorf("hosts=%d %s: %v", hosts, p.Name, err)
			}
			if p.Hosts != hosts {
				t.Errorf("%s not clamped to %d hosts", p.Name, hosts)
			}
		}
	}
}

func TestMultiRankPerHost(t *testing.T) {
	p := Pattern{
		Name: "mr", Hosts: 4, RanksPerHost: 2, Rounds: 3,
		RelaxedBytes: 64, SyncBytes: 256, Fanout: 2,
		Rewrite: 1, LineUtil: 64, Seed: 5,
	}
	cores, progs, err := p.Programs(nc())
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 8 {
		t.Fatalf("cores = %d, want 8 (4 hosts x 2 ranks)", len(cores))
	}
	seen := map[noc.NodeID]bool{}
	for _, c := range cores {
		if seen[c] {
			t.Fatalf("core %v assigned twice", c)
		}
		seen[c] = true
		if c.Tile >= 2 {
			t.Fatalf("core %v outside the 2 slots", c)
		}
	}
	for i, prog := range progs {
		if err := prog.Validate(); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		// Each rank's stores stay within partner hosts' slots.
		for _, op := range prog {
			if op.Kind == proto.OpStoreWT && op.Addr.Host() == cores[i].Host {
				t.Fatalf("rank %d stores to its own host", i)
			}
		}
	}
}

func TestMultiRankRunsUnderCORD(t *testing.T) {
	p := Pattern{
		Name: "mr", Hosts: 3, RanksPerHost: 3, Rounds: 5,
		RelaxedBytes: 64, SyncBytes: 512, Fanout: 2,
		Rewrite: 1, LineUtil: 64, Seed: 6,
	}
	c := nc()
	c.Hosts = 3
	cores, progs, err := p.Programs(c)
	if err != nil {
		t.Fatal(err)
	}
	sys := proto.NewSystem(1, c, proto.RC)
	r, err := proto.Exec(sys, cordProto(), cores, progs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestRanksPerHostValidation(t *testing.T) {
	p := Pattern{Name: "x", Hosts: 2, RanksPerHost: 99, Rounds: 1,
		RelaxedBytes: 8, SyncBytes: 8, Fanout: 1, Rewrite: 1, LineUtil: 64}
	if p.Validate() == nil {
		t.Fatal("RanksPerHost=99 accepted")
	}
	p.RanksPerHost = 5
	c := nc()
	c.TilesPerHost = 4
	c.MeshCols = 2
	if _, _, err := p.Programs(c); err == nil {
		t.Fatal("5 ranks on 4 tiles accepted")
	}
}

// TestAppProgramsPinned pins a SHA-256 of every Table 2 application's
// programs (cores, then each rank's ops field by field), so a change to how
// Programs builds them provably leaves their contents alone.
func TestAppProgramsPinned(t *testing.T) {
	want := map[string]string{
		"PR":     "a5ae13646c42a2fcca6ce5bf514b93d36d60a178934de782797988ea672d014d",
		"SSSP":   "21fb83c318f8b1ac049ec54ddba982bdbfec9bfc05aca89f9c3aa74efbd30042",
		"PAD":    "3a2184e2eb0446214ad944ed6c6362188883816ce0972c21429fa8a29b42fd2e",
		"TQH":    "5e1b62116127a32e4105f023425fb086b3415fc80fc125ba86e705915bb241ad",
		"HSTI":   "cb8f751620092970f5727143b04003b813acdb43acbdc5770b2481d30933cd01",
		"TRNS":   "3456477f6d45c4e080f0a1a3a1bf083cc33b6d49801ab78144880046d368e203",
		"MOCFE":  "17176be3bfe26f0a85ceb3e96f20d80759af8b72b56263f5d0591b517a5341ab",
		"CMC-2D": "94f0b6751a4fdba463f17fbd0661a1964d59a012763516d3198b2c6928e7f1bf",
		"BigFFT": "e3409f523c1b2b1f0bc909fb1a0cae047d6e8a354768b1ff7c1cd5a62e836be5",
		"CR":     "023859a85a90176c2196e4acc63837015b81baf460bb72d653bbd9219683d8c8",
	}
	for _, p := range Apps() {
		cores, progs, err := p.Programs(nc())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		h := sha256.New()
		var b []byte
		for _, c := range cores {
			b = binary.LittleEndian.AppendUint64(b, uint64(c.Host))
			b = binary.LittleEndian.AppendUint64(b, uint64(c.Tile))
		}
		for _, prog := range progs {
			h.Write(b)
			b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(prog)))
			for _, op := range prog {
				b = append(b, byte(op.Kind), byte(op.Ord))
				for _, v := range []uint64{uint64(op.Addr), uint64(op.Size), uint64(op.Cycles), op.Value} {
					b = binary.LittleEndian.AppendUint64(b, v)
				}
			}
		}
		h.Write(b)
		if got := hex.EncodeToString(h.Sum(nil)); got != want[p.Name] {
			t.Errorf("%s: programs hash %s, want %s", p.Name, got, want[p.Name])
		}
	}
}
