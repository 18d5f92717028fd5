package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// hostInfo says where a result set was measured.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

// resultSet is one full invocation: every workload, untraced and traced.
type resultSet struct {
	Host    hostInfo  `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Results []*result `json:"results"`
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *resultSet) find(workload string, traced bool) *result {
	for _, r := range s.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// verdictOf marks b against a: worse when b is on the wrong side of a by more
// than bound (a share of a), better when on the right side by more than it,
// within otherwise.
func verdictOf(d metricDef, a, b float64) (change float64, mark string) {
	change = ratio(b-a, a)
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > d.Bound:
		return change, "worse"
	case worse < -d.Bound:
		return change, "better"
	}
	return change, "within"
}

// diffFiles prints, per workload and end-to-end metric, both values, the
// relative change and the bound, and returns 1 if anything is worse (or a
// run failed operations), 2 if the files cannot be compared.
func diffFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "a: %s  commit %s, %s, nproc %d, seed %d, %d s\n", pathA, a.Host.Commit, a.Host.GoVersion, a.Host.NProc, a.Seed, a.Seconds)
	fmt.Fprintf(w, "b: %s  commit %s, %s, nproc %d, seed %d, %d s\n", pathB, b.Host.Commit, b.Host.GoVersion, b.Host.NProc, b.Seed, b.Seconds)
	code := 0
	for _, wl := range workloads {
		ra, rb := a.find(wl.Name, false), b.find(wl.Name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s is missing from one of the files\n", wl.Name)
			return 2
		}
		fmt.Fprintf(w, "\n%-12s %-18s %14s %14s %9s %7s\n", wl.Name, "metric", "a", "b", "change", "bound")
		for _, d := range endToEnd {
			change, mark := verdictOf(d, ra.Metrics[d.Name], rb.Metrics[d.Name])
			fmt.Fprintf(w, "%-12s %-18s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				"", d.Name, ra.Metrics[d.Name], rb.Metrics[d.Name], 100*change, 100*d.Bound, mark)
			if mark == "worse" {
				code = 1
			}
		}
		for _, traced := range []bool{false, true} {
			for _, r := range []*result{a.find(wl.Name, traced), b.find(wl.Name, traced)} {
				if r != nil && r.Failed > 0 {
					fmt.Fprintf(w, "%-12s %d of %d commands failed (%d wrong bytes)\n", "", r.Failed, r.Attempted, r.Wrong)
					code = 1
				}
			}
		}
	}
	return code
}
