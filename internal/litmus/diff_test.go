package litmus_test

import (
	"fmt"
	"testing"

	"cord/internal/litmus"
	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/proto/cord"
	"cord/internal/proto/mp"
	"cord/internal/proto/so"
	"cord/internal/proto/wb"
)

// This file is the differential test the single-source refactor makes
// meaningful: the timed simulator and the exhaustive model checker execute
// the same core transition rules, so any final memory the simulator
// produces must be one of the terminal outcomes the checker enumerates.
// (Simulator flag cells are monotonic max-commit while the checker's cells
// are last-writer-wins; the test shapes use store values where the maximum
// coincides with a legal last writer — see DESIGN.md §9.)

// diffPair is one (simulator protocol, checker configuration) pairing whose
// protocol decisions come from the same internal/proto/core rules.
type diffPair struct {
	name  string
	build func() proto.Builder
	cfg   litmus.Config
}

func diffPairs() []diffPair {
	tinySim := cord.DefaultConfig()
	tinySim.EpochBits = 2
	tinySim.CntBits = 1
	tinySim.ProcUnackedCap = 1
	tinySim.ProcCntCap = 1
	tinySim.DirCntCapPerProc = 1
	tinySim.DirNotiCapPerProc = 1
	return []diffPair{
		{"cord", func() proto.Builder { return cord.New() }, litmus.DefaultConfig()},
		{"cord-tiny", func() proto.Builder { return &cord.Protocol{Cfg: tinySim} },
			litmus.TinyConfig()},
		{"so", func() proto.Builder { return so.New() },
			litmus.Config{Protos: []litmus.ProtoKind{litmus.SOP}}},
		{"mp", func() proto.Builder { return mp.New() },
			litmus.Config{Protos: []litmus.ProtoKind{litmus.MPP}}},
		{"wb", func() proto.Builder { return wb.New() },
			litmus.Config{Protos: []litmus.ProtoKind{litmus.WBP}}},
	}
}

// diffShapes selects base shapes whose stores span processors and
// directories, the barrier shapes, and the far-atomic programs of
// litmus_test.go, so the waits for barrier acks and atomic values are
// compared too. Loads are dropped in the simulator translation (they do not
// affect final memory, which is what the differential compares).
func diffShapes() []litmus.Test {
	want := map[string]bool{"MP": true, "ISA2": true, "MP3": true,
		"RelChain": true, "2+2W": true, "S": true, "MP+bar": true, "SB+bars": true}
	var out []litmus.Test
	for _, t := range litmus.BaseTests() {
		if want[t.Name] {
			out = append(out, t)
		}
	}
	const x, y, z = litmus.Addr(0), litmus.Addr(1), litmus.Addr(2)
	none := func(litmus.Outcome) bool { return false }
	return append(out,
		litmus.Test{Name: "MP+atomic", Progs: [][]litmus.Op{
			{litmus.St(x, 1), litmus.FAddRel(y, 1, 3)},
			{litmus.LdAcq(y, 0), litmus.Ld(x, 1)},
		}, Home: []int{0, 1}, Forbidden: none},
		litmus.Test{Name: "atomic-accum", Progs: [][]litmus.Op{
			{litmus.FAdd(x, 1, 0)},
			{litmus.FAdd(x, 1, 0)},
		}, Home: []int{1}, Forbidden: none},
		litmus.Test{Name: "atomic-tiny", Progs: [][]litmus.Op{
			{litmus.St(x, 1), litmus.St(y, 1), litmus.FAddRel(z, 1, 0)},
			{litmus.LdAcq(z, 1), litmus.Ld(x, 2), litmus.Ld(y, 3)},
		}, Home: []int{0, 1, 2}, Forbidden: none},
	)
}

// simProgram translates one litmus program to simulator ops, mapping model
// address a to offset a*LineBytes on its home directory's host (slice 0),
// so the simulator's address map reproduces the test's Home placement.
func simProgram(prog []litmus.Op, addrOf func(litmus.Addr) memsys.Addr) proto.Program {
	var out proto.Program
	for _, op := range prog {
		switch op.Kind {
		case litmus.OpSt:
			if op.Ord == litmus.Rel {
				out = append(out, proto.StoreRelease(addrOf(op.Addr), 8, uint64(op.Val)))
			} else {
				out = append(out, proto.Op{Kind: proto.OpStoreWT, Ord: proto.Relaxed,
					Addr: addrOf(op.Addr), Size: 8, Value: uint64(op.Val)})
			}
		case litmus.OpBar:
			out = append(out, proto.Barrier(proto.Release))
		case litmus.OpAt:
			ord := proto.Relaxed
			if op.Ord == litmus.Rel {
				ord = proto.Release
			}
			out = append(out, proto.FetchAdd(addrOf(op.Addr), uint64(op.Val), ord))
		}
	}
	return out
}

func TestSimulatorMemoryWithinCheckerOutcomes(t *testing.T) {
	fabrics := []struct {
		name string
		nc   noc.Config
	}{
		{"cxl", noc.CXLConfig()},
		{"upi", noc.UPIConfig()},
	}
	for _, pair := range diffPairs() {
		for _, shape := range diffShapes() {
			res, err := litmus.Check(shape, pair.cfg)
			if err != nil {
				t.Fatalf("%s/%s: check: %v", pair.name, shape.Name, err)
			}
			naddrs := len(shape.Home)
			allowed := make(map[string]bool, len(res.Outcomes))
			for _, o := range res.Outcomes {
				allowed[fmt.Sprint(o.Mem[:naddrs])] = true
			}
			addrOf := func(a litmus.Addr) memsys.Addr {
				return memsys.Compose(shape.Home[a], 0, uint64(a)*memsys.LineBytes)
			}
			for _, f := range fabrics {
				t.Run(fmt.Sprintf("%s/%s/%s", pair.name, shape.Name, f.name), func(t *testing.T) {
					sys := proto.NewSystem(1, f.nc, proto.RC)
					cores := make([]noc.NodeID, len(shape.Progs))
					progs := make([]proto.Program, len(shape.Progs))
					for p := range shape.Progs {
						cores[p] = noc.CoreID(p, 0)
						progs[p] = simProgram(shape.Progs[p], addrOf)
					}
					if _, err := proto.Exec(sys, pair.build(), cores, progs); err != nil {
						t.Fatalf("exec: %v", err)
					}
					mem := make([]int, naddrs)
					for a := 0; a < naddrs; a++ {
						mem[a] = int(sys.ReadMem(addrOf(litmus.Addr(a))))
					}
					if got := fmt.Sprint(mem); !allowed[got] {
						t.Errorf("final simulator memory %s not among the %d checker outcomes",
							got, len(allowed))
					}
				})
			}
		}
	}
}
