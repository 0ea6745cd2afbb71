package core

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// sampleMsg fills every field with a distinct value so single-field
// perturbations are visible in the encoding.
func sampleMsg() Msg {
	return Msg{
		Kind: MRelease, Src: 1, Dir: 2, Dst: 3,
		Addr: 4, Val: 5, Size: 6,
		Ep: 7, Cnt: 8, HasPrev: true, PrevEp: 9, NotiCnt: 10,
		Seq: 11, Barrier: true, Atomic: true, Release: true, Tag: 12,
	}
}

func TestMsgEncSizeMatches(t *testing.T) {
	m := sampleMsg()
	enc := m.AppendBinary(nil)
	if len(enc) != MsgEncSize {
		t.Fatalf("encoded Msg is %d bytes, MsgEncSize says %d", len(enc), MsgEncSize)
	}
}

// TestMsgPacked holds the in-memory layout of Msg to 104 bytes: the
// simulator copies one into a recycled message per send, and 104 bytes fit
// the 112-byte size class where a padded 120-byte layout takes 128.
func TestMsgPacked(t *testing.T) {
	if n := unsafe.Sizeof(Msg{}); n > 104 {
		t.Fatalf("core.Msg is %d bytes, want <= 104: keep the 8-byte fields first and Kind and the flags last", n)
	}
}

// TestMsgEncodingInjective perturbs each field in turn and requires the
// encoding to change: a field the encoding drops would let two different
// messages (hence two different worlds) alias in the visited set.
func TestMsgEncodingInjective(t *testing.T) {
	base := sampleMsg()
	ref := base.AppendBinary(nil)
	perturbed := []struct {
		name string
		mut  func(*Msg)
	}{
		{"Kind", func(m *Msg) { m.Kind = MAck }},
		{"Src", func(m *Msg) { m.Src++ }},
		{"Dir", func(m *Msg) { m.Dir++ }},
		{"Dst", func(m *Msg) { m.Dst++ }},
		{"Addr", func(m *Msg) { m.Addr++ }},
		{"Val", func(m *Msg) { m.Val++ }},
		{"Size", func(m *Msg) { m.Size++ }},
		{"Ep", func(m *Msg) { m.Ep++ }},
		{"Cnt", func(m *Msg) { m.Cnt++ }},
		{"HasPrev", func(m *Msg) { m.HasPrev = false }},
		{"PrevEp", func(m *Msg) { m.PrevEp++ }},
		{"NotiCnt", func(m *Msg) { m.NotiCnt++ }},
		{"Seq", func(m *Msg) { m.Seq++ }},
		{"Barrier", func(m *Msg) { m.Barrier = false }},
		{"Atomic", func(m *Msg) { m.Atomic = false }},
		{"Release", func(m *Msg) { m.Release = false }},
		{"Tag", func(m *Msg) { m.Tag++ }},
	}
	for _, p := range perturbed {
		m := base
		p.mut(&m)
		if enc := m.AppendBinary(nil); bytes.Equal(enc, ref) {
			t.Errorf("changing %s left the encoding unchanged", p.name)
		}
	}
}

// TestMsgSetPermutationInvariant: a message multiset must encode identically
// no matter the slice order — the in-flight network is unordered, so arrival
// interleaving must leave no imprint on the canonical key.
func TestMsgSetPermutationInvariant(t *testing.T) {
	msgs := make([]Msg, 8)
	for i := range msgs {
		msgs[i] = sampleMsg()
		msgs[i].Ep = uint64(i)
		msgs[i].Src = i % 3
	}
	// Duplicates too: multisets, not sets.
	msgs = append(msgs, msgs[0], msgs[3])
	ref := AppendMsgSetBinary(nil, msgs)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		perm := append([]Msg(nil), msgs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if enc := AppendMsgSetBinary(nil, perm); !bytes.Equal(enc, ref) {
			t.Fatalf("trial %d: permuted multiset encoded differently", trial)
		}
	}
	// The input slice itself must not be reordered (the checker encodes
	// live worlds).
	if msgs[0].Ep != 0 || msgs[len(msgs)-1].Ep != 3 {
		t.Fatal("AppendMsgSetBinary reordered its input slice")
	}
}

func TestMsgSetLengthPrefixed(t *testing.T) {
	one := AppendMsgSetBinary(nil, []Msg{sampleMsg()})
	var none []Msg
	empty := AppendMsgSetBinary(nil, none)
	if bytes.HasPrefix(one, empty) {
		t.Fatal("count prefix missing: empty set encoding is a prefix of a singleton's")
	}
	if len(empty) != 4 {
		t.Fatalf("empty set should encode to the 4-byte count, got %d bytes", len(empty))
	}
}

func TestPETablePermutationInvariant(t *testing.T) {
	tab := []PE{{Proc: 0, Ep: 1, N: 2}, {Proc: 1, Ep: 1, N: 3}, {Proc: 2, Ep: 9, N: 0}}
	ref := AppendPETableBinary(nil, tab)
	perms := [][]PE{
		{tab[1], tab[0], tab[2]},
		{tab[2], tab[1], tab[0]},
		{tab[1], tab[2], tab[0]},
	}
	for i, p := range perms {
		if enc := AppendPETableBinary(nil, p); !bytes.Equal(enc, ref) {
			t.Fatalf("permutation %d encoded differently", i)
		}
	}
}

// TestWBSetCanonical: a line the table holds without an ownership state (a
// store recorded and flushed without a fetch) must encode the same as a line
// never touched, so the owned and fetching sets list owned and fetching lines
// only.
func TestWBSetCanonical(t *testing.T) {
	with := NewWBProc()
	with.BeginFetch(64)
	with.Fill(64)
	with.RecordDirty(128, 128, 1)
	with.FlushLines(func(*WBLine) {})
	without := NewWBProc()
	without.BeginFetch(64)
	without.Fill(64)
	without.NoteFlag()
	if !bytes.Equal(with.AppendBinary(nil), without.AppendBinary(nil)) {
		t.Fatal("a stateless line leaks into the set encoding")
	}
}

// TestHash64Vectors pins Hash64 to the published FNV-1a 64-bit test vectors:
// the fingerprints must stay stable across runs, processes, and releases, or
// exact-mode collision audits stop being comparable.
func TestHash64Vectors(t *testing.T) {
	vectors := []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	}
	for _, v := range vectors {
		if got := Hash64([]byte(v.in)); got != v.want {
			t.Errorf("Hash64(%q) = %#x, want %#x", v.in, got, v.want)
		}
	}
}

func TestSortChunksSorts(t *testing.T) {
	// Three 2-byte records, reverse order.
	recs := []byte{0x03, 0x00, 0x02, 0xff, 0x01, 0x01}
	sortChunks(recs, 2)
	want := []byte{0x01, 0x01, 0x02, 0xff, 0x03, 0x00}
	if !bytes.Equal(recs, want) {
		t.Fatalf("sortChunks = %x, want %x", recs, want)
	}
}
