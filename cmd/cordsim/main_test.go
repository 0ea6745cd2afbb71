package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNegativeSizeExitsTwo runs main in a child process: a negative -hosts,
// -cores, -mesh or -kv-arrival, or an unknown -fabric, must fail with a
// message and exit status 2, before any simulation starts.
func TestNegativeSizeExitsTwo(t *testing.T) {
	if args := os.Getenv("CORDSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cordsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, msg string }{
		{"-workload ATA -hosts -1", "must be >= 0"},
		{"-workload ATA -cores -1", "must be >= 0"},
		{"-mesh -2", "must be >= 0"},
		{"-workload kvsvc -kv-arrival -5", "-kv-arrival -5: must be >= 0"},
		{"-fabric XYZ", `-fabric "XYZ": must be CXL or UPI`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeSizeExitsTwo$")
		cmd.Env = append(os.Environ(), "CORDSIM_TEST_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("cordsim %s: err %v, want exit status 2; output:\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.msg) {
			t.Errorf("cordsim %s: output lacks %q:\n%s", tc.args, tc.msg, out)
		}
	}
}
