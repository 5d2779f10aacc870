// Command crashsweep enumerates crash points across every recovery
// architecture and audits recovery at each one (see internal/faultinj and
// docs/FAULTS.md).
//
// Usage:
//
//	go run ./cmd/crashsweep [flags]
//
// For each selected engine it cuts power at every -every-th stable-storage
// mutation of a seeded workload, re-crashes recovery itself partway
// through, recovers, and audits atomicity, durability, page checksums,
// idempotence, and liveness. With -file the same engines are also built on
// file-backed stores and join the same sweep, which there faults every
// -every-th file operation instead (power cut, torn write, lost fsync). The
// report is deterministic: the same flags produce byte-identical output.
//
// With -journal engine@k it instead replays the one crash point k of one
// engine with a recovery journal attached: the journal's JSONL goes to
// stdout (or -journal-out), then one verdict line to stderr, e.g.
// "wal-1stream@3: committed=0 CONSISTENT (in-doubt commit rolled back)".
// The point is always one of the memory sweep's, so the sweep's flags
// (-file, -file-dir, -engines, -every, -jobs, -report, -live) are refused.
//
// Exit status: 0 when every audit passes, 1 on audit failures, 2 on usage
// or harness errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinj"
	"repro/internal/obs/live"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flag parsing, the sweep
// or the journal replay, and the report, with the exit status returned
// instead of raised so every deferred cleanup runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crashsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engines := fs.String("engines", "all",
		"comma-separated recovery engines to sweep (wal-1stream, wal-3streams, shadow, ow-noundo, ow-noredo, verselect, difffile), or \"all\"")
	every := fs.Int64("every", 1, "crash at every n-th stable mutation")
	seed := fs.Int64("seed", 1985, "workload seed")
	jobs := fs.Int("jobs", 0,
		"worker count for fanning crash points out (0 = GOMAXPROCS); any value produces a byte-identical report")
	report := fs.String("report", "", "write the report to this file instead of stdout")
	fileSweep := fs.Bool("file", false,
		"additionally sweep file-backed stores at file-operation granularity (power cuts, torn writes, lost fsyncs on a real WAL)")
	fileDir := fs.String("file-dir", "",
		"scratch directory for the file-backed sweep (default: a fresh temp dir, removed afterwards)")
	quiet := fs.Bool("quiet", false, "suppress the stderr progress ticker")
	liveAddr := fs.String("live", "", "serve live /metrics, /progress and /debug/pprof on this address during the sweep (e.g. :9090)")
	journalAt := fs.String("journal", "",
		"instead of sweeping, replay one crash point with a recovery journal attached: engine@k (e.g. wal-1stream@17)")
	journalOut := fs.String("journal-out", "", "write the journal JSONL to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: crashsweep [-engines wal-1stream,shadow] [-every n] [-seed s] [-report file]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "crashsweep:", err)
		return 2
	}

	if *journalAt != "" {
		// A journal replays one point of the memory sweep in this process:
		// a flag that shapes a sweep or serves its progress would be ignored.
		var sweepOnly []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "file", "file-dir", "engines", "every", "jobs", "report", "live":
				sweepOnly = append(sweepOnly, "-"+f.Name)
			}
		})
		if len(sweepOnly) > 0 {
			return fail(fmt.Errorf("%s cannot be used with -journal: a journal replays the one memory-store crash point engine@k names",
				strings.Join(sweepOnly, ", ")))
		}
		rep, err := journalPoint(*journalAt, *seed, *journalOut, stdout)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, verdict(*journalAt, rep))
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, "crashsweep: audit failure:", f)
		}
		if len(rep.Failures) > 0 {
			return 1
		}
		return 0
	}

	targets, err := faultinj.TargetsByName(*engines)
	if err != nil {
		return fail(err)
	}

	// The progress tracker feeds the stderr ticker and the -live /progress
	// endpoint; it never touches the report, which stays byte-identical
	// with or without it (-quiet only silences stderr).
	prog := live.NewProgress(live.Wall(), "crashsweep")
	if *liveAddr != "" {
		srv, err := live.Serve(*liveAddr, live.Default(), prog)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "crashsweep: live endpoint on http://%s/metrics\n", srv.Addr())
	}
	if !*quiet {
		stop := prog.StartTicker(stderr, 2*time.Second)
		defer stop()
	}

	if *fileSweep {
		root := *fileDir
		if root == "" {
			tmp, err := os.MkdirTemp("", "crashsweep-file-")
			if err != nil {
				return fail(err)
			}
			defer os.RemoveAll(tmp)
			root = tmp
		} else if err := os.MkdirAll(root, 0o755); err != nil {
			return fail(err)
		}
		ftargets, err := faultinj.FileTargetsByName(root, *engines)
		if err != nil {
			return fail(err)
		}
		targets = append(targets, ftargets...)
	}
	rep, err := faultinj.Sweep(targets, faultinj.Options{
		Seed: *seed, Every: *every, Jobs: *jobs, Progress: prog,
	})
	if err != nil {
		return fail(err)
	}

	out := stdout
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		out = f
	}
	if err := rep.Render(out); err != nil {
		return fail(err)
	}
	if rep.TotalFailures() > 0 {
		return 1
	}
	return 0
}

// journalPoint handles -journal engine@k: replay exactly one crash point
// with a structured recovery journal attached, emit the JSONL record of
// what recovery decided there, and return the point's audited report.
// Deterministic: same engine, seed and k give byte-identical output.
func journalPoint(spec string, seed int64, outPath string, stdout io.Writer) (*faultinj.TargetReport, error) {
	name, kStr, ok := strings.Cut(spec, "@")
	if !ok {
		return nil, fmt.Errorf("-journal wants engine@k, got %q", spec)
	}
	k, err := strconv.ParseInt(kStr, 10, 64)
	if err != nil || k < 1 {
		return nil, fmt.Errorf("-journal wants a positive crash point, got %q", kStr)
	}
	targets, err := faultinj.TargetsByName(name)
	if err != nil {
		return nil, err
	}
	if len(targets) != 1 {
		return nil, fmt.Errorf("-journal replays exactly one engine, got %q", name)
	}
	j, rep, err := faultinj.JournalPoint(targets[0], faultinj.Options{Seed: seed}, k)
	if err != nil {
		return nil, err
	}
	out := stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		out = f
	}
	if err := j.WriteJSONL(out); err != nil {
		return nil, err
	}
	return rep, nil
}

// verdict renders a replayed point's report as one line: the point, its
// commits, the audit verdict, and how recovery resolved an in-doubt
// commit, e.g. "wal-1stream@3: committed=2 CONSISTENT".
func verdict(spec string, rep *faultinj.TargetReport) string {
	status := "CONSISTENT"
	if n := len(rep.Failures); n > 0 {
		status = fmt.Sprintf("INCONSISTENT (%d audit failures)", n)
	}
	switch {
	case rep.DoubtApplied > 0:
		status += " (in-doubt commit applied)"
	case rep.DoubtReverted > 0:
		status += " (in-doubt commit rolled back)"
	}
	return fmt.Sprintf("%s: committed=%d %s", spec, rep.Commits, status)
}
