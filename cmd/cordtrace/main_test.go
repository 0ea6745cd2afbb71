package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cord"
)

// runMain re-runs the test binary as cordtrace with args (the named test
// calls main when CORDTRACE_TEST_ARGS is set) and returns its combined
// output and exit status.
func runMain(t *testing.T, test, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "CORDTRACE_TEST_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &ee):
		return string(out), ee.ExitCode()
	}
	t.Fatalf("cordtrace %s: %v", args, err)
	return "", 0
}

// childMain runs main when this process is the child runMain started.
func childMain() {
	if args := os.Getenv("CORDTRACE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cordtrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
}

// writeTrace records a small CORD run and writes its JSONL trace.
func writeTrace(t *testing.T) string {
	t.Helper()
	_, o, err := cord.SimulateObserved(cord.Microbench(64, 64, 2, 4), cord.CORD,
		cord.CXLSystem(), cord.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNegativeTopKExitsTwo runs main in a child process: top with a negative
// -k must fail with a message and exit status 2, not panic, on a real trace.
func TestNegativeTopKExitsTwo(t *testing.T) {
	childMain()
	path := writeTrace(t)
	for _, args := range []string{"top -k -1 " + path, "top -csv -k -3 " + path} {
		out, code := runMain(t, "TestNegativeTopKExitsTwo", args)
		if code != 2 {
			t.Errorf("cordtrace %s: exit status %d, want 2; output:\n%s", args, code, out)
			continue
		}
		if !strings.Contains(out, "must be >= 0") || strings.Contains(out, "panic") {
			t.Errorf("cordtrace %s: want the rejection message and no panic:\n%s", args, out)
		}
	}
}

// TestUsageErrorsExitTwo: a command line with the wrong number of inputs
// exits 2 with a message, while a well-formed one whose input cannot be read
// still exits 1.
func TestUsageErrorsExitTwo(t *testing.T) {
	childMain()
	path := writeTrace(t)
	for _, tc := range []struct {
		args, msg string
		code      int
	}{
		{"analyze", "analyze wants exactly one trace, got 0", 2},
		{"diff " + path, "diff wants exactly two traces, got 1", 2},
		{"scaling", "scaling wants exactly one runtime report, got 0", 2},
		{"breakdown", "breakdown wants at least one trace", 2},
		{"requests " + path + " " + path, "requests wants exactly one trace, got 2", 2},
		{"analyze " + path + ".missing", "no such file", 1},
	} {
		out, code := runMain(t, "TestUsageErrorsExitTwo", tc.args)
		if code != tc.code || !strings.Contains(out, tc.msg) {
			t.Errorf("cordtrace %s: exit status %d, want %d with %q; output:\n%s",
				tc.args, code, tc.code, tc.msg, out)
		}
	}
}
