package addrtab

import (
	"encoding/binary"
	"testing"
)

// FuzzAddrTable runs a random sequence of Write, Max and Read operations
// against a Go map reference. Each 17-byte record is an opcode byte, an
// address and a value; the low bits of the opcode shrink the address onto a
// few values (address 0 among them) so that keys repeat and collide, and a
// long input grows the table several times.
func FuzzAddrTable(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 17*64)
	for i := 0; i < 64; i++ {
		var rec [17]byte
		rec[0] = byte(i)
		binary.LittleEndian.PutUint64(rec[1:], uint64(i*64))
		binary.LittleEndian.PutUint64(rec[9:], uint64(i%5))
		seed = append(seed, rec[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table
		ref := make(map[uint64]uint64)
		for ; len(data) >= 17; data = data[17:] {
			op := data[0]
			a := binary.LittleEndian.Uint64(data[1:])
			v := binary.LittleEndian.Uint64(data[9:])
			switch op >> 6 {
			case 1:
				a &= 0xff
			case 2:
				a = 0
			}
			switch op % 3 {
			case 0:
				tab.Write(a, v)
				ref[a] = v
			case 1:
				tab.Max(a, v)
				if v > ref[a] {
					ref[a] = v
				}
			}
			if got := tab.Read(a); got != ref[a] {
				t.Fatalf("Read(%#x) = %d, want %d", a, got, ref[a])
			}
		}
		n := 0
		tab.Each(func(a, v uint64) {
			n++
			if want, ok := ref[a]; !ok || want != v {
				t.Fatalf("Each yields (%#x, %d), reference has %d (present %v)", a, v, want, ok)
			}
		})
		if n != len(ref) {
			t.Fatalf("Each yields %d entries, reference %d", n, len(ref))
		}
		for a, v := range ref {
			if got := tab.Read(a); got != v {
				t.Fatalf("final Read(%#x) = %d, want %d", a, got, v)
			}
		}
	})
}

// entries counts the addresses Each yields.
func entries(tab *Table) int {
	n := 0
	tab.Each(func(_, _ uint64) { n++ })
	return n
}

func TestAddressZero(t *testing.T) {
	var tab Table
	if tab.Read(0) != 0 || entries(&tab) != 0 {
		t.Fatal("empty table")
	}
	tab.Max(0, 0)
	tab.Max(64, 0)
	if entries(&tab) != 0 {
		t.Fatal("Max with 0 must insert nothing")
	}
	tab.Max(0, 5)
	tab.Max(0, 3)
	tab.Write(8, 1)
	if tab.Read(0) != 5 || tab.Read(8) != 1 || entries(&tab) != 2 {
		t.Fatalf("Read(0) = %d, Read(8) = %d, %d entries", tab.Read(0), tab.Read(8), entries(&tab))
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	var tab Table
	const n = 10000
	for i := uint64(1); i <= n; i++ {
		tab.Write(i<<6, i)
	}
	if entries(&tab) != n || 2*tab.used > len(tab.slots) {
		t.Fatalf("%d entries, %d of %d slots used", entries(&tab), tab.used, len(tab.slots))
	}
	for i := uint64(1); i <= n; i++ {
		if tab.Read(i<<6) != i {
			t.Fatalf("Read(%#x) = %d after growth", i<<6, tab.Read(i<<6))
		}
	}
	if tab.Read(1) != 0 {
		t.Fatal("absent address must read 0")
	}
}

// TestCopyToIsIndependent: a copy into a table that held addresses of its
// own keeps none of them and shares no slots with the original.
func TestCopyToIsIndependent(t *testing.T) {
	var tab, c Table
	tab.Write(64, 1)
	c.Write(256, 9)
	tab.CopyTo(&c)
	if c.Read(256) != 0 || c.Read(64) != 1 || entries(&c) != 1 {
		t.Fatal("copy kept the destination's old contents")
	}
	c.Write(64, 2)
	c.Write(128, 3)
	if tab.Read(64) != 1 || tab.Read(128) != 0 || entries(&tab) != 1 {
		t.Fatal("copy writes leaked into the original")
	}
}

// TestSteadyStateZeroAlloc pins the per-message path: once the table holds
// its addresses, Read, Max and Write allocate nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var tab Table
	for i := uint64(0); i < 256; i++ {
		tab.Write(i*8, i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 256; i++ {
			tab.Max(i*8, tab.Read(i*8)+1)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per run", allocs)
	}
}
