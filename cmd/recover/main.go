// Command recover drives the functional recovery engines through a
// crash-and-restart drill: load pages, run faultinj's seeded script, cut
// power after a chosen number of stable mutations, recover, and audit every
// page against the script's committed outcome — for any of the seven
// recovery architectures of internal/faultinj (the names crashsweep and
// dbserver use).
//
// Usage:
//
//	recover -engine all
//	recover -engine wal-3streams -crash-after 100
//	recover -engine shadow -txns 500
//
// Point-in-time backup and restore (one engine at a time):
//
//	recover -engine wal-3streams -snapshot full.snap
//	recover -engine wal-3streams -txns 600 -snapshot incr.snap -snapshot-since full.snap
//	recover -engine wal-3streams -restore full.snap,incr.snap
//
// -snapshot archives the engine's stable stores right before the crash and
// verifies the archive round-trips into a fresh engine; -snapshot-since
// makes that archive incremental relative to an existing chain; -restore
// skips the workload, applies a chain to a fresh engine, and reports the
// recovered state.
//
// Exit status: 0 when every audit passes, 1 on an audit or drill failure,
// 2 on usage errors.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/pagestore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed workload flags one drill needs.
type options struct {
	txns, pages      int
	crashAfter, seed int64
	snapshot, since  string
}

// run is the whole command behind a testable seam: flag parsing, target
// selection, and the drills, with the exit status returned instead of
// raised.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	engines := fs.String("engine", "all",
		"recovery architecture (wal-1stream, wal-3streams, shadow, ow-noundo, ow-noredo, verselect, difffile), or \"all\"")
	fs.IntVar(&o.txns, "txns", 300, "transactions to run before the crash")
	fs.IntVar(&o.pages, "pages", 32, "database size in pages")
	fs.Int64Var(&o.crashAfter, "crash-after", -1,
		"cut power after N stable mutations, counted across every store (-1: crash after the workload)")
	fs.Int64Var(&o.seed, "seed", 1985, "workload seed")
	fs.StringVar(&o.snapshot, "snapshot", "",
		"write a point-in-time snapshot archive to this file before the crash and verify it restores into a fresh engine")
	fs.StringVar(&o.since, "snapshot-since", "",
		"comma-separated base archive chain; makes -snapshot incremental relative to it")
	restore := fs.String("restore", "",
		"skip the workload: restore this comma-separated archive chain into a fresh engine and report the recovered state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.since != "" && o.snapshot == "" {
		fmt.Fprintln(stderr, "recover: -snapshot-since requires -snapshot")
		return 2
	}
	targets, err := faultinj.TargetsByName(*engines)
	if err != nil {
		fmt.Fprintln(stderr, "recover:", err)
		return 2
	}
	if (o.snapshot != "" || *restore != "") && len(targets) != 1 {
		fmt.Fprintln(stderr, "recover: -snapshot and -restore need a single -engine")
		return 2
	}
	if *restore != "" {
		if err := restoreDrill(targets[0], splitChain(*restore), o.pages, stdout); err != nil {
			fmt.Fprintf(stderr, "recover: %s: %v\n", targets[0].Name, err)
			return 1
		}
		return 0
	}
	code := 0
	for _, tg := range targets {
		if err := drill(tg, o, stdout); err != nil {
			fmt.Fprintf(stderr, "recover: %s: %v\n", tg.Name, err)
			code = 1
		}
	}
	return code
}

// drill runs one target through LoadPages → RunScript → optional
// snapshot → Crash → Recover → AuditState and reports it on one line.
func drill(tg faultinj.Target, o options, stdout io.Writer) error {
	e, stores, err := tg.Build()
	if err != nil {
		return err
	}
	model, err := faultinj.LoadPages(e, o.pages)
	if err != nil {
		return err
	}
	if o.crashAfter >= 0 {
		// One hook on every store, data and log both: the count runs over
		// their combined mutations, so a WAL commit can be cut mid-force.
		hook := pagestore.CrashAtMutation(o.crashAfter + 1)
		for _, s := range stores {
			s.SetFaultHook(hook)
		}
	}
	out := faultinj.RunScript(e, model, o.seed, o.pages, o.txns)

	// A snapshot taken here is a transaction-consistent image of the
	// pre-crash instant: restored and recovered, it must pass the same
	// audit against the same outcome.
	var chain []string
	if o.snapshot != "" {
		base := splitChain(o.since)
		if err := writeSnapshot(e, o.snapshot, base); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		chain = append(base, o.snapshot)
	}

	e.Crash()
	for _, s := range stores {
		s.SetFaultHook(nil)
	}
	if err := e.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := audit(stdout, fmt.Sprintf("%-14s committed=%-4d recovered", tg.Name, out.Commits),
		e, out, o.pages); err != nil {
		return err
	}
	if len(chain) > 0 {
		return verifyRestore(tg, chain, out, o.pages, stdout)
	}
	return nil
}

// audit checks e against the script's outcome and prints the verdict after
// label; it returns the audit failures as one error.
func audit(stdout io.Writer, label string, e *engine.Engine, out *faultinj.Outcome, pages int) error {
	fails, applied := faultinj.AuditState(e, out, pages)
	status := "CONSISTENT"
	if len(fails) > 0 {
		status = fmt.Sprintf("INCONSISTENT (%d audit failures)", len(fails))
	}
	switch {
	case out.Doubt == nil:
	case applied:
		status += " (in-doubt commit applied)"
	default:
		status += " (in-doubt commit rolled back)"
	}
	fmt.Fprintf(stdout, "%s: %s\n", label, status)
	if len(fails) > 0 {
		return errors.New(strings.Join(fails, "; "))
	}
	return nil
}

// splitChain parses a comma-separated archive chain.
func splitChain(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// openChain opens every archive of a chain in order.
func openChain(paths []string) ([]io.Reader, func(), error) {
	var files []*os.File
	var rs []io.Reader
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			for _, g := range files {
				g.Close()
			}
			return nil, nil, err
		}
		files = append(files, f)
		rs = append(rs, f)
	}
	return rs, func() {
		for _, g := range files {
			g.Close()
		}
	}, nil
}

// writeSnapshot archives e's stable stores to path — full when base is
// empty, incremental relative to the base chain's manifests otherwise.
func writeSnapshot(e *engine.Engine, path string, base []string) error {
	var manifests []pagestore.Manifest
	if len(base) > 0 {
		rs, closeAll, err := openChain(base)
		if err != nil {
			return err
		}
		manifests, err = engine.ArchiveManifests(rs...)
		closeAll()
		if err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if manifests == nil {
		_, err = e.Snapshot(f)
	} else {
		_, err = e.SnapshotSince(f, manifests)
	}
	return err
}

// restoreChain builds a fresh engine of tg and applies the archive chain
// to it; Restore runs crash-restart recovery over the restored bytes.
func restoreChain(tg faultinj.Target, chain []string) (*engine.Engine, error) {
	e, _, err := tg.Build()
	if err != nil {
		return nil, err
	}
	rs, closeAll, err := openChain(chain)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	if err := e.Restore(rs...); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	return e, nil
}

// verifyRestore proves the snapshot round-trips: the chain restored into a
// fresh engine passes the drill's audit against the same outcome.
func verifyRestore(tg faultinj.Target, chain []string, out *faultinj.Outcome, pages int, stdout io.Writer) error {
	e, err := restoreChain(tg, chain)
	if err != nil {
		return err
	}
	return audit(stdout, fmt.Sprintf("%-14s snapshot chain (%d archives) restored into a fresh engine",
		tg.Name, len(chain)), e, out, pages)
}

// restoreDrill is the -restore path: no workload, just apply the chain to
// a fresh engine, check every page's payload, report a state crc, and prove
// the engine is live again.
func restoreDrill(tg faultinj.Target, chain []string, pages int, stdout io.Writer) error {
	e, err := restoreChain(tg, chain)
	if err != nil {
		return err
	}
	sum := crc32.NewIEEE()
	for p := int64(0); p < int64(pages); p++ {
		got, err := e.ReadCommitted(p)
		if err != nil {
			return fmt.Errorf("page %d after restore: %w", p, err)
		}
		if msg := faultinj.CheckPayload(got, p); msg != "" {
			return errors.New(msg)
		}
		sum.Write(binary.BigEndian.AppendUint64(nil, uint64(p)))
		sum.Write(got)
	}
	state := sum.Sum32()
	if fails := faultinj.AuditLiveness(e, pages); len(fails) > 0 {
		return errors.New(strings.Join(fails, "; "))
	}
	fmt.Fprintf(stdout, "%-14s restored %d archives: %d pages, state crc %08x, engine live\n",
		tg.Name, len(chain), pages, state)
	return nil
}
