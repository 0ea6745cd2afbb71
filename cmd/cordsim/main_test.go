package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeSizeExitsTwo runs main in a child process: a negative -hosts,
// -cores, -mesh or -kv-arrival, a -trace-sample below 1, an unknown -fabric,
// any other bad -kv-* value, or a KV service that does not fit the system
// must fail with a message quoting the value as given and exit status 2,
// before any simulation starts or output is printed.
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
		{"-trace-sample 0", "-trace-sample 0: must be >= 1"},
		{"-workload kvsvc -trace-sample -3", "-trace-sample -3: must be >= 1"},
		{"-workload kvsvc -kv-think -5", "ThinkCycles -5 < 0"},
		{"-workload kvsvc -kv-clients 0", "Clients 0 < 1"},
		{"-workload kvsvc -kv-requests 0", "Requests 0 < 1"},
		{"-workload kvsvc -kv-get-pct 101", "GetPct 101 outside [0,100]"},
		{"-workload kvsvc -kv-value-bytes 0", "ValueBytes 0 outside [1,4096]"},
		{"-workload kvsvc -kv-shards 0", "Shards 0 outside"},
		{"-workload kvsvc -kv-servers 0", "ServersPerHost 0 < 1"},
		{"-workload kvsvc -kv-loads 1,-2", `bad load multiplier "-2"`},
		{"-workload kvsvc -hosts 1", "need >= 2 hosts for replication, have 1"},
		{"-workload kvsvc -kv-servers 9", "ServersPerHost 9 exceeds 8 tiles per host"},
		{"-workload kvsvc -cores 4 -kv-servers 5", "ServersPerHost 5 exceeds 4 tiles per host"},
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
		if strings.Contains(string(out), "workload ") {
			t.Errorf("cordsim %s: printed output before failing:\n%s", tc.args, out)
		}
	}
}

// TestMicroBadFanoutNamesFanout: the micro workload derives its host count
// from -fanout, so a fan-out below 1 must be reported as the fan-out the
// user set, not as a host count.
func TestMicroBadFanoutNamesFanout(t *testing.T) {
	if args := os.Getenv("CORDSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cordsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, f := range []string{"0", "-2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMicroBadFanoutNamesFanout$")
		cmd.Env = append(os.Environ(), "CORDSIM_TEST_ARGS=-workload micro -fanout "+f)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() == 0 {
			t.Errorf("cordsim -fanout %s: err %v, want a failing exit; output:\n%s", f, err, out)
		}
		if want := "Fanout = " + f + " must be in [1, hosts-1]"; !strings.Contains(string(out), want) {
			t.Errorf("cordsim -fanout %s: output lacks %q:\n%s", f, want, out)
		}
	}
}

// TestOversizedTraceStoreFails replays a trace whose store size does not fit
// a store: cordsim must exit 1 with the parse error, not panic in the
// network.
func TestOversizedTraceStoreFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.trace")
	if err := os.WriteFile(path, []byte("cordtrace 1\ncore 0 0\nw 10000000000 9223372036854775800 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeSizeExitsTwo$")
	cmd.Env = append(os.Environ(), "CORDSIM_TEST_ARGS=-from-trace "+path)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err %v, want exit status 1; output:\n%s", err, out)
	}
	if strings.Contains(string(out), "panic") || !strings.Contains(string(out), "bad store fields") {
		t.Fatalf("output lacks the parse error, or panicked:\n%s", out)
	}
}
