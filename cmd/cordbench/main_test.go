package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCSVWriteErrorExitsOne runs main in a child process with its Table 3 CSV
// file pointing at /dev/full: the failed write must be reported with exit
// status 1, not leave a silently truncated file behind a zero exit.
func TestCSVWriteErrorExitsOne(t *testing.T) {
	if args := os.Getenv("CORDBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cordbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "table3.csv")); err != nil {
		t.Skip("cannot link to /dev/full:", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCSVWriteErrorExitsOne$")
	cmd.Env = append(os.Environ(), "CORDBENCH_TEST_ARGS=-table 3 -csv "+dir)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("cordbench -table 3 -csv on /dev/full: err %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "no space left on device") {
		t.Errorf("output lacks the write error:\n%s", out)
	}
}

// TestCSVWriterKeepsFirstError: once a row fails, later rows are not
// attempted, and close reports the first error.
func TestCSVWriterKeepsFirstError(t *testing.T) {
	f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no writable /dev/full on this system")
	}
	w := &writer{csv: f}
	w.row("a", "b")
	first := w.err
	w.row("c", "d")
	if first == nil || w.err != first {
		t.Fatalf("row errors: first %v, after a second row %v", first, w.err)
	}
	if err := w.close(); err != first {
		t.Fatalf("close() = %v, want the first write error %v", err, first)
	}
}
