package wb

import (
	"testing"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/stats"
)

func smallConfig() noc.Config {
	c := noc.CXLConfig()
	c.Hosts = 2
	c.TilesPerHost = 4
	c.JitterCycles = 0
	return c
}

func run(t *testing.T, mode proto.Mode, cores []noc.NodeID, progs []proto.Program) *stats.Run {
	t.Helper()
	sys := proto.NewSystem(5, smallConfig(), mode)
	r, err := proto.Exec(sys, New(), cores, progs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteHitsGenerateNoTraffic(t *testing.T) {
	data := memsys.Compose(1, 0, 0)
	p := proto.Program{
		proto.StoreRelaxed(data, 8),
		proto.StoreRelaxed(data+8, 8),  // same line: hit
		proto.StoreRelaxed(data+16, 8), // same line: hit
		proto.Barrier(proto.SeqCst),
	}
	r := run(t, proto.RC, []noc.NodeID{noc.CoreID(0, 0)}, []proto.Program{p})
	// One GetM + one fill + one write-back + one ack; the two hits are free.
	if got := r.Traffic.InterMsgs[stats.ClassOwnReq]; got != 1 {
		t.Fatalf("GetM = %d, want 1 (write combining)", got)
	}
	if got := r.Traffic.InterMsgs[stats.ClassWriteback]; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
}

func TestReleaseFlushesDirtyLines(t *testing.T) {
	data := memsys.Compose(1, 0, 0)
	flag := memsys.Compose(1, 0, 1<<16)
	var p proto.Program
	for i := 0; i < 4; i++ {
		p = append(p, proto.StoreRelaxed(data+memsys.Addr(i*64), 64))
	}
	p = append(p, proto.StoreRelease(flag, 8, 1))
	p = append(p, proto.Barrier(proto.SeqCst))
	r := run(t, proto.RC, []noc.NodeID{noc.CoreID(0, 0)}, []proto.Program{p})
	if got := r.Traffic.InterMsgs[stats.ClassWriteback]; got != 4 {
		t.Fatalf("writebacks = %d, want 4", got)
	}
	// Release stalled for MSHR drain + write-back acks: at least 2 RTs.
	if got := r.Procs[0].Stall[stats.StallAckWait]; got < 1000 {
		t.Fatalf("release stall = %d, want >= 1000 (fills + flush)", got)
	}
}

func TestFlagVisibleAfterFlush(t *testing.T) {
	data := memsys.Compose(1, 1, 0)
	flag := memsys.Compose(1, 2, 0)
	prod := proto.Program{
		proto.Op{Kind: proto.OpStoreWT, Ord: proto.Relaxed, Addr: data, Size: 64, Value: 9},
		proto.StoreRelease(flag, 8, 1),
	}
	cons := proto.Program{
		proto.AcquireLoad(flag, 1),
		proto.AcquireLoad(data, 9), // data must be home before flag publishes
	}
	r := run(t, proto.RC, []noc.NodeID{noc.CoreID(0, 0), noc.CoreID(1, 0)},
		[]proto.Program{prod, cons})
	// The second acquire should not add another producer-round of stall.
	if r.Procs[1].Finished == 0 {
		t.Fatal("consumer did not finish")
	}
}

func TestWBMoreTrafficThanStreamingWouldBe(t *testing.T) {
	// Streaming (one store per line): WB moves each line twice (fill +
	// write-back); write-through protocols move it once.
	data := memsys.Compose(1, 0, 0)
	var p proto.Program
	for i := 0; i < 16; i++ {
		p = append(p, proto.StoreRelaxed(data+memsys.Addr(i*64), 64))
	}
	p = append(p, proto.StoreRelease(memsys.Compose(1, 0, 1<<16), 8, 1))
	p = append(p, proto.Barrier(proto.SeqCst))
	r := run(t, proto.RC, []noc.NodeID{noc.CoreID(0, 0)}, []proto.Program{p})
	wtBytes := uint64(16 * (proto.HeaderBytes + 64))
	if got := r.Traffic.TotalInter(); got < wtBytes*5/4 {
		t.Fatalf("WB traffic = %d, want above write-through's %d", got, wtBytes)
	}
}

func TestMSHRBackpressure(t *testing.T) {
	sys := proto.NewSystem(5, smallConfig(), proto.RC)
	p := &Protocol{Cfg: Config{MSHRs: 2}}
	data := memsys.Compose(1, 0, 0)
	var prog proto.Program
	for i := 0; i < 10; i++ {
		prog = append(prog, proto.StoreRelaxed(data+memsys.Addr(i*64), 64))
	}
	prog = append(prog, proto.Barrier(proto.SeqCst))
	r, err := proto.Exec(sys, p, []noc.NodeID{noc.CoreID(0, 0)}, []proto.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Procs[0].Stall[stats.StallStoreBuf]; got == 0 {
		t.Fatal("expected MSHR stalls with 2 MSHRs and 10 distinct lines")
	}
}

func TestTSOSerializesMisses(t *testing.T) {
	data := memsys.Compose(1, 0, 0)
	var p proto.Program
	for i := 0; i < 5; i++ {
		p = append(p, proto.StoreRelaxed(data+memsys.Addr(i*64), 64))
	}
	p = append(p, proto.Barrier(proto.SeqCst))
	rc := run(t, proto.RC, []noc.NodeID{noc.CoreID(0, 0)}, []proto.Program{p})
	tso := run(t, proto.TSO, []noc.NodeID{noc.CoreID(0, 0)}, []proto.Program{p})
	if tso.Time <= rc.Time {
		t.Fatalf("TSO (%d) should be slower than RC (%d)", tso.Time, rc.Time)
	}
}

func TestOwnershipRetainedAcrossEpochs(t *testing.T) {
	// A release flush writes the line back but keeps ownership: subsequent
	// epochs write back again without refetching.
	data := memsys.Compose(1, 0, 0)
	flag := memsys.Compose(1, 0, 1<<16)
	var p proto.Program
	for round := 0; round < 3; round++ {
		p = append(p, proto.StoreRelaxed(data, 64))
		p = append(p, proto.StoreRelease(flag, 8, uint64(round+1)))
	}
	p = append(p, proto.Barrier(proto.SeqCst))
	r := run(t, proto.RC, []noc.NodeID{noc.CoreID(0, 0)}, []proto.Program{p})
	if got := r.Traffic.InterMsgs[stats.ClassOwnReq]; got != 1 {
		t.Fatalf("GetM = %d, want 1 (ownership retained)", got)
	}
	if got := r.Traffic.InterMsgs[stats.ClassWriteback]; got != 3 {
		t.Fatalf("writebacks = %d, want 3 (one per epoch)", got)
	}
}

// TestLineRecordMatchesLine: core's write-diff records cover exactly one
// memsys line, so every offset within a line has a word slot.
func TestLineRecordMatchesLine(t *testing.T) {
	if core.WBLineBytes != memsys.LineBytes {
		t.Fatalf("core.WBLineBytes %d, memsys.LineBytes %d", core.WBLineBytes, memsys.LineBytes)
	}
}
