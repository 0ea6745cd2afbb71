package trace

import (
	"bytes"
	"strings"
	"testing"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/workload"
)

func sampleTrace() *Trace {
	a := memsys.Compose(1, 0, 0)
	f := memsys.Compose(1, 0, 4096)
	return &Trace{
		Cores: []noc.NodeID{noc.CoreID(0, 0), noc.CoreID(1, 0)},
		Progs: []proto.Program{
			{
				proto.Compute(100),
				proto.StoreRelaxed(a, 64),
				proto.StoreWBRelaxed(a+64, 8),
				proto.StoreWBRelease(a+128, 8, 3),
				proto.StoreRelease(f, 8, 1),
				proto.Barrier(proto.SeqCst),
			},
			{
				proto.AcquireLoad(f, 1),
				proto.Barrier(proto.Acquire),
			},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cores) != 2 {
		t.Fatalf("cores = %d", len(got.Cores))
	}
	for i := range tr.Cores {
		if got.Cores[i] != tr.Cores[i] {
			t.Fatalf("core %d = %v, want %v", i, got.Cores[i], tr.Cores[i])
		}
		if len(got.Progs[i]) != len(tr.Progs[i]) {
			t.Fatalf("prog %d: %d ops, want %d", i, len(got.Progs[i]), len(tr.Progs[i]))
		}
		for j := range tr.Progs[i] {
			if got.Progs[i][j] != tr.Progs[i][j] {
				t.Fatalf("prog %d op %d = %v, want %v", i, j, got.Progs[i][j], tr.Progs[i][j])
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"nottrace 1\n",
		"cordtrace 99\n",
		"cordtrace 1\nw 0 64 1\n",            // op before core
		"cordtrace 1\ncore 0 0\nz 1 2 3\n",   // unknown tag
		"cordtrace 1\ncore 0 0\nw zz 64 1\n", // bad addr
		"cordtrace 1\ncore 0 0\nf weird\n",   // bad barrier
		"cordtrace 1\ncore 0 0\nw 0 0 1\n",   // zero-size store fails Validate
		"cordtrace 1\ncore 0\n",              // short core line
		// Store sizes past an int32 (the second would wrap to 64) or past
		// proto.MaxStoreBytes.
		"cordtrace 1\ncore 0 0\nw 10000000000 9223372036854775800 1\n",
		"cordtrace 1\ncore 0 0\nw 0 4294967360 1\n",
		"cordtrace 1\ncore 0 0\nw 0 -4294967232 1\n",
		"cordtrace 1\ncore 0 0\nw 0 2000000 1\n",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
cordtrace 1

core 0 0
# ops below
c 10
w 100000000 64 7
`
	tr, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Progs[0]) != 2 {
		t.Fatalf("ops = %d, want 2", len(tr.Progs[0]))
	}
	if tr.Progs[0][1].Addr != memsys.Addr(0x100000000) {
		t.Fatalf("addr = %v", tr.Progs[0][1].Addr)
	}
}

func TestFromWorkload(t *testing.T) {
	nc := noc.CXLConfig()
	tr, err := FromWorkload(workload.Micro(64, 1024, 2, 3), nc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Cores) != 1 {
		t.Fatalf("cores = %d", len(tr.Cores))
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Progs[0]) != len(tr.Progs[0]) {
		t.Fatal("round trip changed op count")
	}
}

func TestCharacterizeMatchesTable2(t *testing.T) {
	nc := noc.CXLConfig()
	for _, app := range workload.Apps() {
		tr, err := FromWorkload(app, nc)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		s := Characterize(tr)
		// Relaxed granularity matches the generator's parameter.
		if int(s.RelaxedBytes+0.5) != app.RelaxedBytes {
			t.Errorf("%s: relaxed gran %.1f, want %d", app.Name, s.RelaxedBytes, app.RelaxedBytes)
		}
		// Fanout counts remote hosts (Table 2's Comm. Fanout).
		if int(s.Fanout+0.5) != app.Fanout {
			t.Errorf("%s: fanout %.1f, want %d", app.Name, s.Fanout, app.Fanout)
		}
		// Release granularity falls within the configured sync range
		// (x rewrite factor, since rewrites re-store the same bytes).
		lo := float64(app.SyncBytes) * float64(app.Rewrite) * 0.4
		hi := float64(max(app.SyncBytes, app.SyncBytesMax)) * float64(app.Rewrite) * 1.6
		if s.ReleaseGranBytes < lo || s.ReleaseGranBytes > hi {
			t.Errorf("%s: release gran %.0fB outside [%.0f, %.0f]", app.Name, s.ReleaseGranBytes, lo, hi)
		}
	}
}

// TestFromWorkloadMultiRank materializes a RanksPerHost > 1 pattern: the
// trace must hold one section per rank (hosts x ranks), on distinct tiles,
// and every program must validate.
func TestFromWorkloadMultiRank(t *testing.T) {
	p := workload.ATA(4, 2)
	p.RanksPerHost = 3
	nc := noc.CXLConfig()
	nc.Hosts = 4
	tr, err := FromWorkload(p, nc)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Hosts * 3; len(tr.Cores) != want {
		t.Fatalf("trace has %d cores, want %d (hosts x ranks)", len(tr.Cores), want)
	}
	tiles := map[noc.NodeID]bool{}
	for i, c := range tr.Cores {
		if tiles[c] {
			t.Fatalf("core %v appears twice", c)
		}
		tiles[c] = true
		if err := tr.Progs[i].Validate(); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if len(tr.Progs[i]) == 0 {
			t.Fatalf("program %d is empty", i)
		}
	}
}

// TestFromWorkloadSyncSamplingDeterministic pins the log-uniform SyncBytes
// sampler: the same seed must materialize identical traces (byte-for-byte
// through the writer), and a different seed must not.
func TestFromWorkloadSyncSamplingDeterministic(t *testing.T) {
	gen := func(seed int64) []byte {
		p := workload.Micro(64, 256, 1, 6)
		p.SyncBytesMax = 64 * 1024 // log-uniform range, sampled per round
		p.Seed = seed
		tr, err := FromWorkload(p, noc.CXLConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := gen(7), gen(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if c := gen(8); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical traces — sampler ignores the seed")
	}
}

func TestCharacterizeCounts(t *testing.T) {
	s := Characterize(sampleTrace())
	if s.Cores != 2 || s.Releases != 2 || s.Acquires != 1 || s.Barriers != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.RelaxedStores != 2 { // one WT + one WB relaxed
		t.Fatalf("relaxed = %d, want 2", s.RelaxedStores)
	}
	if s.ComputeCycles != 100 {
		t.Fatalf("compute = %d", s.ComputeCycles)
	}
}
