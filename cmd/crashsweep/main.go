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
// -every-th file operation instead (power cut, torn write, lost fsync). It
// also cuts performance-simulator runs at virtual-time instants and audits
// determinism, monotone progress, and loss-free resume. The report is
// deterministic: the same flags produce byte-identical output.
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
	engines := flag.String("engines", "all",
		"comma-separated recovery engines to sweep (wal-1stream, wal-3streams, shadow, ow-noundo, ow-noredo, verselect, difffile), or \"all\"")
	every := flag.Int64("every", 1, "crash at every n-th stable mutation")
	seed := flag.Int64("seed", 1985, "workload seed")
	jobs := flag.Int("jobs", 0,
		"worker count for fanning crash points out (0 = GOMAXPROCS); any value produces a byte-identical report")
	report := flag.String("report", "", "write the report to this file instead of stdout")
	fileSweep := flag.Bool("file", false,
		"additionally sweep file-backed stores at file-operation granularity (power cuts, torn writes, lost fsyncs on a real WAL)")
	fileDir := flag.String("file-dir", "",
		"scratch directory for the file-backed sweep (default: a fresh temp dir, removed afterwards)")
	machinePoints := flag.Int("machine-points", 8,
		"virtual-time crash instants per performance-simulator model (0 disables the machine sweep)")
	machineTxns := flag.Int("machine-txns", 10, "transactions per performance-simulator run")
	quiet := flag.Bool("quiet", false, "suppress the stderr progress ticker")
	liveAddr := flag.String("live", "", "serve live /metrics, /progress and /debug/pprof on this address during the sweep (e.g. :9090)")
	journalAt := flag.String("journal", "",
		"instead of sweeping, replay one crash point with a recovery journal attached: engine@k (e.g. wal-1stream@17)")
	journalOut := flag.String("journal-out", "", "write the journal JSONL to this file instead of stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: crashsweep [-engines wal-1stream,shadow] [-every n] [-seed s] [-report file]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *journalAt != "" {
		if err := journalPoint(*journalAt, *seed, *journalOut); err != nil {
			fatal(err)
		}
		return
	}

	targets, err := faultinj.TargetsByName(*engines)
	if err != nil {
		fatal(err)
	}

	// The progress tracker feeds the stderr ticker and the -live /progress
	// endpoint; it never touches the report, which stays byte-identical
	// with or without it (-quiet only silences stderr).
	prog := live.NewProgress(live.Wall(), "crashsweep")
	if *liveAddr != "" {
		srv, err := live.Serve(*liveAddr, live.Default(), prog)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "crashsweep: live endpoint on http://%s/metrics\n", srv.Addr())
	}
	if !*quiet {
		stop := prog.StartTicker(os.Stderr, 2*time.Second)
		defer stop()
	}

	if *fileSweep {
		root := *fileDir
		if root == "" {
			tmp, err := os.MkdirTemp("", "crashsweep-file-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(tmp)
			root = tmp
		} else if err := os.MkdirAll(root, 0o755); err != nil {
			fatal(err)
		}
		ftargets, err := faultinj.FileTargetsByName(root, *engines)
		if err != nil {
			fatal(err)
		}
		targets = append(targets, ftargets...)
	}
	rep, err := faultinj.Sweep(targets, faultinj.Options{
		Seed: *seed, Every: *every, Jobs: *jobs, Progress: prog,
	})
	if err != nil {
		fatal(err)
	}
	if *machinePoints > 0 {
		ms, err := faultinj.SweepMachines(faultinj.MachineOptions{
			Seed:     *seed,
			Points:   *machinePoints,
			NumTxns:  *machineTxns,
			Jobs:     *jobs,
			Progress: prog,
		})
		if err != nil {
			fatal(err)
		}
		rep.Machines = ms
	}

	var out io.Writer = os.Stdout
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := rep.Render(out); err != nil {
		fatal(err)
	}
	if rep.TotalFailures() > 0 {
		os.Exit(1)
	}
}

// journalPoint handles -journal engine@k: replay exactly one crash point
// with a structured recovery journal attached and emit the JSONL record of
// what recovery decided there. Deterministic: same engine, seed and k give
// byte-identical output.
func journalPoint(spec string, seed int64, outPath string) error {
	name, kStr, ok := strings.Cut(spec, "@")
	if !ok {
		return fmt.Errorf("-journal wants engine@k, got %q", spec)
	}
	k, err := strconv.ParseInt(kStr, 10, 64)
	if err != nil || k < 1 {
		return fmt.Errorf("-journal wants a positive crash point, got %q", kStr)
	}
	targets, err := faultinj.TargetsByName(name)
	if err != nil {
		return err
	}
	j, rep, err := faultinj.JournalPoint(targets[0], faultinj.Options{Seed: seed}, k)
	if err != nil {
		return err
	}
	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := j.WriteJSONL(out); err != nil {
		return err
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "crashsweep: audit failure:", f)
	}
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crashsweep:", err)
	os.Exit(2)
}
