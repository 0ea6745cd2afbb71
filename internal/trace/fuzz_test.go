package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse fuzzes the cordtrace reader with arbitrary text. The contract
// under fuzzing:
//
//  1. Read never panics, whatever the input;
//  2. when Read accepts the input, Write(Read(x)) re-serializes to a
//     canonical form that Read parses back to a structurally identical trace
//     (parse -> write -> parse is the identity on parsed traces).
func FuzzParse(f *testing.F) {
	// Valid traces covering every op tag, comments, blank lines, and both
	// whitespace styles.
	f.Add("cordtrace 1\ncore 0 0\nc 5\nw 40001000 64 1\nW 40002000 8 1\n")
	f.Add("cordtrace 1\n# comment\n\ncore 1 3\nb 80000040 16 2\nB 80001000 8 3\n")
	f.Add("cordtrace 1\ncore 0 0\nx 40200000 1\nX 40200000 2\na 40300000 1\nf rel\n")
	f.Add("cordtrace 1\ncore 0 0\nf rlx\nf acq\nf sc\n")
	f.Add("cordtrace 1\ncore 0 1\ncore 2 3\n  w 1040 8 9  \nc 100\n")
	f.Add("cordtrace 1\n")
	// Malformed inputs: must error, never panic.
	f.Add("")
	f.Add("cordtrace 2\ncore 0 0\n")
	f.Add("bogus\n")
	f.Add("cordtrace 1\nw 0 8 1\n")           // op before any core
	f.Add("cordtrace 1\ncore 0 0\nw 0 0 1\n") // zero-size store fails Validate
	f.Add("cordtrace 1\ncore 0 0\na 0 0\n")   // acquire-of-zero fails Validate
	f.Add("cordtrace 1\ncore 0 0\nz 1 2 3\n")
	f.Add("cordtrace 1\ncore -1 0\n")
	f.Add("cordtrace 1\ncore 0 0\nf maybe\n")
	f.Add("cordtrace 1\ncore 0 0\nw zz 8 1\n")
	f.Add("cordtrace 1\ncore 0 0\nw 10000000000 9223372036854775800 1\n") // size past int32
	f.Add("cordtrace 1\ncore 0 0\nw 40001000 4294967360 1\n")             // would wrap to 64

	f.Fuzz(func(t *testing.T, input string) {
		t1, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		var buf bytes.Buffer
		if err := Write(&buf, t1); err != nil {
			t.Fatalf("Write failed on a trace Read accepted: %v", err)
		}
		t2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written trace failed: %v\ninput: %q\nwritten: %q",
				err, input, buf.String())
		}
		if !reflect.DeepEqual(normalize(t1), normalize(t2)) {
			t.Fatalf("round trip changed the trace\ninput: %q\nfirst:  %+v\nsecond: %+v",
				input, t1, t2)
		}
	})
}

// normalize maps empty and nil programs to the same representation: a core
// section with no ops parses as a nil program either way, but DeepEqual
// distinguishes nil from empty slices.
func normalize(t *Trace) *Trace {
	out := &Trace{Cores: t.Cores}
	for _, p := range t.Progs {
		if len(p) == 0 {
			out.Progs = append(out.Progs, nil)
			continue
		}
		out.Progs = append(out.Progs, p)
	}
	return out
}
