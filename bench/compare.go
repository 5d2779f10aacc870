package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is -compare's word on one (workload, metric) pair.
type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// judge compares the later set's median b with the earlier set's a. worse is
// the relative change in the direction that counts as worse. A pair regressed
// when b is worse than the bound allows and the repeats of the two sets lie
// outside each other's quartiles. A pair is unresolved, not unchanged, when b
// is worse than the bound but the quartiles overlap, or when the quartiles of
// either set's own repeats are further apart than the bound: the sets cannot
// tell a change of that size from their own spread.
func judge(a, b setMetric) (worse float64, v verdict) {
	if a.Value == 0 {
		return 0, unresolved
	}
	worse = (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		worse = -worse
	}
	spread := func(m setMetric) float64 { return ratio(m.Q3-m.Q1, m.Value) }
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	switch {
	case worse > a.Bound && !overlap:
		return worse, regressed
	case worse > a.Bound, spread(a) > a.Bound, spread(b) > a.Bound:
		return worse, unresolved
	case worse < -a.Bound:
		return worse, improved
	}
	return worse, unchanged
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	blob, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(blob, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareSets prints one row per (workload, bounded metric) pair of the two
// sets and reports whether any pair regressed.
func compareSets(out io.Writer, a, b resultSet) bool {
	breach := false
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-15s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "worse", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		metrics := make([]string, 0, len(wa.Metrics))
		for m := range wa.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			ma, mb := wa.Metrics[m], wb.Metrics[m]
			if ma.Bound == 0 || mb.N == 0 {
				continue // per-layer metrics carry no bound
			}
			worse, v := judge(ma, mb)
			if v == regressed {
				breach = true
			}
			fmt.Fprintf(out, "%-15s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				name, m, ma.Value, mb.Value, worse*100, ma.Bound*100, v)
		}
		if wb.Failed > wa.Failed {
			breach = true
			fmt.Fprintf(out, "%-15s failed transactions rose from %d to %d\n", name, wa.Failed, wb.Failed)
		}
	}
	return breach
}

// compareFiles is the -compare command; it returns the exit code.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compareSets(out, a, b) {
		fmt.Fprintln(out, "bench: at least one metric is worse than its bound")
		return 1
	}
	return 0
}
