package core

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// wbEncodingState builds a WB processor state that exercises every section
// of the encoding: owned lines (address 0 among them), a line being fetched,
// a dirty line with two words, a dirty line whose only store wrote 0, and
// outstanding MSHR and ack counts.
func wbEncodingState() WBProc {
	p := NewWBProc()
	for _, l := range []uint64{64, 0, 256} {
		p.BeginFetch(l)
	}
	p.Fill(64)
	p.Fill(0)
	p.RecordDirty(64, 68, 7)
	p.RecordDirty(64, 64, 1)
	p.RecordDirty(0, 0, 3)
	p.RecordDirty(256, 256, 0)
	p.Pending = 2
	return p
}

// TestWBEncodingBytes pins WBProc.AppendBinary to fixed bytes: AtomWait,
// MSHR and Pending, the sorted owned set, the sorted fetching set, then the dirty
// lines in ascending order with their (addr, val) pairs ascending. The
// checker's fingerprints and state counts depend on exactly these bytes.
func TestWBEncodingBytes(t *testing.T) {
	p := wbEncodingState()
	const want = "00" + "00000001" + "00000002" +
		"00000002" + "0000000000000000" + "0000000000000040" +
		"00000001" + "0000000000000100" +
		"00000003" +
		"0000000000000000" + "00000001" + "0000000000000000" + "0000000000000003" +
		"0000000000000040" + "00000002" + "0000000000000040" + "0000000000000001" +
		"0000000000000044" + "0000000000000007" +
		"0000000000000100" + "00000000"
	if got := hex.EncodeToString(p.AppendBinary(nil)); got != want {
		t.Fatalf("encoding\n got %s\nwant %s", got, want)
	}
}

// flushed drains p and returns each flushed line's words as (addr, val)
// pairs, line by line, recycling the records.
func flushed(p *WBProc) [][][2]uint64 {
	var out [][][2]uint64
	p.FlushLines(nil, func(buf []Msg, l *WBLine) []Msg {
		var words [][2]uint64
		l.Each(func(a, v uint64) { words = append(words, [2]uint64{a, v}) })
		out = append(out, words)
		p.Recycle(l)
		return buf
	})
	return out
}

// TestWBFourByteStores: 4-byte stores at every word of a line keep one word
// each, merge by max, and flush in ascending address order whatever order
// they were stored in.
func TestWBFourByteStores(t *testing.T) {
	p := NewWBProc()
	for _, off := range []uint64{60, 0, 4, 32, 4} {
		p.RecordDirty(1024, 1024+off, off+1)
	}
	p.RecordDirty(1024, 1024+32, 2) // below the stored 33: max keeps 33
	got := flushed(&p)
	want := [][2]uint64{{1024, 1}, {1028, 5}, {1056, 33}, {1084, 61}}
	if len(got) != 1 || len(got[0]) != len(want) {
		t.Fatalf("flushed %v, want one line %v", got, want)
	}
	for i, w := range want {
		if got[0][i] != w {
			t.Fatalf("word %d = %v, want %v", i, got[0][i], w)
		}
	}
}

// TestWBZeroStoreDirtiesLine: a store of 0 to a clean line leaves the line
// dirty with no words; it is still written back and acknowledged.
func TestWBZeroStoreDirtiesLine(t *testing.T) {
	p := NewWBProc()
	p.RecordDirty(64, 64, 0)
	if !p.Dirty() {
		t.Fatal("a zero-valued store must dirty the line")
	}
	got := flushed(&p)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("flushed %v, want one line without words", got)
	}
	if p.Pending != 1 || p.Dirty() {
		t.Fatalf("the empty write-back awaits its ack: pending %d", p.Pending)
	}
}

// TestWBRedirtyAfterFlush: a line stored again after its write-back starts a
// fresh record (the recycled one forgets its old words), and lines stored
// in descending order still flush ascending.
func TestWBRedirtyAfterFlush(t *testing.T) {
	p := NewWBProc()
	p.RecordDirty(128, 136, 9)
	p.RecordDirty(64, 64, 4)
	flushed(&p)
	p.RecordDirty(192, 192, 1)
	p.RecordDirty(128, 128, 2)
	p.RecordDirty(64, 72, 3)
	got := flushed(&p)
	want := [][][2]uint64{{{72, 3}}, {{128, 2}}, {{192, 1}}}
	if len(got) != len(want) {
		t.Fatalf("flushed %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != 1 || got[i][0] != want[i][0] {
			t.Fatalf("flushed %v, want %v", got, want)
		}
	}
}

// TestWBCopyToIndependent: a copy shares no state with its original, even
// when it reuses a destination that held lines of its own, and encodes the
// same until one of them moves.
func TestWBCopyToIndependent(t *testing.T) {
	p := wbEncodingState()
	c := NewWBProc()
	c.RecordDirty(1024, 1024, 5)
	c.BeginFetch(2048)
	p.CopyTo(&c)
	if !bytes.Equal(p.AppendBinary(nil), c.AppendBinary(nil)) {
		t.Fatal("a copy must encode like its original")
	}
	ref := hex.EncodeToString(p.AppendBinary(nil))
	c.RecordDirty(64, 64, 9)
	c.RecordDirty(512, 512, 1)
	c.Fill(256)
	flushed(&c)
	if got := hex.EncodeToString(p.AppendBinary(nil)); got != ref {
		t.Fatalf("copy changes leaked into the original:\n got %s\nwant %s", got, ref)
	}
	if got := flushed(&p); len(got) != 3 || got[1][1] != [2]uint64{68, 7} {
		t.Fatalf("original lost its dirty data: %v", got)
	}
}

// TestWBRecordRejectsOffLineStores: a word must start inside its line.
func TestWBRecordRejectsOffLineStores(t *testing.T) {
	for _, addr := range []uint64{64 + WBLineBytes, 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("store at %d into line 64 did not panic", addr)
				}
			}()
			p := NewWBProc()
			p.RecordDirty(64, addr, 1)
		}()
	}
}
