// Command dbmsim regenerates the evaluation tables of "Recovery
// Architectures for Multiprocessor Database Machines" (Agrawal & DeWitt,
// 1985) from the simulator in this repository.
//
// Usage:
//
//	dbmsim -table all            # every table (1-12) plus the bandwidth study
//	dbmsim -table 3              # just Table 3
//	dbmsim -table bandwidth      # the Section 4.1.3 interconnect study
//	dbmsim -table all -txns 12   # faster, reduced load
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/obs/live"
)

func main() {
	table := flag.String("table", "all", `experiment to run: 1..12, an extension id (see -list), or "all"`)
	txns := flag.Int("txns", 0, "transactions per simulation (0 = paper-scale default)")
	seed := flag.Int64("seed", 0, "base random seed (0 = default 1985)")
	jobs := flag.Int("jobs", 0,
		"worker count for fanning tables and their simulation cells out (0 = GOMAXPROCS); any value produces byte-identical tables")
	format := flag.String("format", "text", `output format: "text" or "md"`)
	profile := flag.String("profile", "", `instead of a table, profile one run: machine config ("conv-random", "par-random", "conv-seq", "par-seq")`)
	recovery := flag.String("recovery", "bare", "recovery architecture for -profile")
	trace := flag.String("trace", "", "with -profile: write a Chrome trace-event JSON file (open in Perfetto)")
	metrics := flag.Bool("metrics", false, "with -profile: print a JSON metrics snapshot of the run")
	list := flag.Bool("list", false, "list the available experiments and exit")
	liveAddr := flag.String("live", "", "serve live /metrics, /progress and /debug/pprof on this address while running (e.g. :9090)")
	flag.Parse()

	if *liveAddr != "" {
		srv, err := live.Serve(*liveAddr, live.Default(), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbmsim: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dbmsim: live endpoint on http://%s/metrics\n", srv.Addr())
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *profile == "" && (*trace != "" || *metrics) {
		fmt.Fprintln(os.Stderr, "dbmsim: -trace and -metrics require -profile")
		os.Exit(2)
	}
	if *format != "text" && *format != "md" {
		fmt.Fprintf(os.Stderr, "dbmsim: -format %q: want \"text\" or \"md\"\n", *format)
		os.Exit(2)
	}
	if *profile != "" {
		if err := runProfile(*profile, *recovery, *txns, *seed, *trace, *metrics); err != nil {
			fmt.Fprintf(os.Stderr, "dbmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opt := experiments.Options{NumTxns: *txns, Seed: *seed, Jobs: *jobs}
	ids := experiments.IDs()
	if *table != "all" {
		id := *table
		if _, err := strconv.Atoi(id); err == nil {
			id = "table" + id
		}
		ids = []string{id}
	}
	tabs, err := experiments.RunAll(ids, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbmsim: %v\n", err)
		os.Exit(1)
	}
	for _, tab := range tabs {
		if *format == "md" {
			fmt.Print(tab.RenderMarkdown())
		} else {
			fmt.Println(tab.Render())
		}
	}
}
