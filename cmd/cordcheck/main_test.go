package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNonsenseSizeExitsTwo runs main in a child process: a negative -workers
// or -mem-limit, or a -verify-reduction below -1, must fail with a message
// and exit status 2, before any checking starts.
func TestNonsenseSizeExitsTwo(t *testing.T) {
	if args := os.Getenv("CORDCHECK_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cordcheck"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-quick -workers -5",
		"-quick -mem-limit -1",
		"-quick -verify-reduction -7",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNonsenseSizeExitsTwo$")
		cmd.Env = append(os.Environ(), "CORDCHECK_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("cordcheck %s: err %v, want exit status 2; output:\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "must be >= 0") {
			t.Errorf("cordcheck %s: output lacks the rejection message:\n%s", args, out)
		}
	}
}
