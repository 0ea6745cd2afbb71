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

// TestNegativeTopKExitsTwo runs main in a child process: top with a negative
// -k must fail with a message and exit status 2, not panic, on a real trace.
func TestNegativeTopKExitsTwo(t *testing.T) {
	if args := os.Getenv("CORDTRACE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cordtrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
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
	for _, args := range []string{"top -k -1 " + path, "top -csv -k -3 " + path} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeTopKExitsTwo$")
		cmd.Env = append(os.Environ(), "CORDTRACE_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("cordtrace %s: err %v, want exit status 2; output:\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "must be >= 0") || strings.Contains(string(out), "panic") {
			t.Errorf("cordtrace %s: want the rejection message and no panic:\n%s", args, out)
		}
	}
}
