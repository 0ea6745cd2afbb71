package exp

import (
	"crypto/sha256"
	"encoding/json"
	"testing"

	"cord/internal/proto"
	"cord/internal/stats"
	"cord/internal/workload"
)

// runDigest hashes a run's JSON statistics.
func runDigest(t *testing.T, r *stats.Run) [32]byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// TestSourcesMatchPrograms runs PAD and TQH under every protocol twice: from
// materialized programs through Exec, and from streamed sources through
// ExecSources (RunObserved's path). The statistics must be identical.
func TestSourcesMatchPrograms(t *testing.T) {
	nc := NetConfig(CXL)
	for _, name := range []string{"PAD", "TQH"} {
		p, err := workload.App(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range Schemes() {
			cores, progs, err := p.Programs(nc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := proto.Exec(proto.NewSystem(42, nc, proto.RC), Builder(s), cores, progs)
			if err != nil {
				t.Fatalf("%s under %s, programs: %v", name, s, err)
			}
			got, err := Run(p, Builder(s), nc, proto.RC, 42)
			if err != nil {
				t.Fatalf("%s under %s, sources: %v", name, s, err)
			}
			if want.Time == 0 || want.Traffic.TotalInter() == 0 {
				t.Fatalf("%s under %s: vacuous run", name, s)
			}
			if runDigest(t, got) != runDigest(t, want) {
				t.Errorf("%s under %s: ExecSources(Sources) and Exec(Programs) statistics differ", name, s)
			}
		}
	}
}
