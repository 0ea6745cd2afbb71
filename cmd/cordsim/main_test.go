package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNegativeSizeExitsTwo runs main in a child process: a negative -hosts,
// -cores or -mesh must fail with a message and exit status 2, before any
// simulation starts.
func TestNegativeSizeExitsTwo(t *testing.T) {
	if args := os.Getenv("CORDSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cordsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-workload ATA -hosts -1", "-workload ATA -cores -1", "-mesh -2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeSizeExitsTwo$")
		cmd.Env = append(os.Environ(), "CORDSIM_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("cordsim %s: err %v, want exit status 2; output:\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "must be >= 0") {
			t.Errorf("cordsim %s: output lacks the rejection message:\n%s", args, out)
		}
	}
}
