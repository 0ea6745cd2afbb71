package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
)

// stamp records the host and settings a result came from, so no number is
// read without them.
type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func newStamp(seed int64, seconds, trace int) stamp {
	return stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Seed: seed, Seconds: seconds, Trace: trace,
	}
}

// entry is one run in a result file.
type entry struct {
	Stamp stamp `json:"stamp"`
	result
}

// resultFile holds runs keyed by workload, with "+trace" appended for a
// traced run.
type resultFile struct {
	Runs map[string]entry `json:"runs"`
}

func runKey(workload string, trace int) string {
	if trace == 1 {
		return workload + "+trace"
	}
	return workload
}

func readResults(path string) (resultFile, error) {
	f := resultFile{Runs: map[string]entry{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Runs == nil {
		f.Runs = map[string]entry{}
	}
	return f, nil
}

// mergeResult adds res to the result file at path, replacing an earlier run
// of the same workload and kind, and creating the file if needed.
func mergeResult(path string, res result, st stamp) error {
	f, err := readResults(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Runs[runKey(res.Workload, st.Trace)] = entry{Stamp: st, result: res}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
