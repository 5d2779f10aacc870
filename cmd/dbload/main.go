// Command dbload drives concurrent transactional load at a dbserver and
// reports throughput and latency percentiles.
//
// Each session is one TCP connection running debit/credit transfers:
// read two distinct balance pages, move a random amount between them,
// commit. Transfers preserve the bank's total balance, so after the run
// dbload audits the invariant with a read-only transaction — a nonzero
// drift means a recovery architecture leaked or lost a committed write
// under concurrency.
//
// The load is closed: -sessions workers each run -txns transactions
// back-to-back, and latency is per-transaction service time.
//
// Deadlock victims (the server's retryable status) are retried with a
// fresh transaction and counted separately.
//
// Modes:
//
//	dbload -addr HOST:PORT            drive an external dbserver
//	dbload -engines all               self-host: start an in-process
//	                                  server per architecture and drive
//	                                  each in turn
//
// Usage:
//
//	go run ./cmd/dbload -engines all -sessions 1000 -txns 3
//	    [-pages 64] [-value 1000] [-seed 1] [-live :8080]
//
// dbload is a benchmark harness, not a simulator: wall-clock reads go
// through internal/obs/live's Clock, the one scope where host time is
// legal under simlint; randomness is per-worker seeded, never global.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs/live"
	"repro/internal/server"
)

// options collects the knobs shared by every engine run.
type options struct {
	Sessions int
	Txns     int
	Pages    int
	Value    int64
	Seed     int64
}

// engineResult is one architecture's row in the report.
type engineResult struct {
	Name            string
	Txns            int64
	DeadlockRetries int64
	BusyRetries     int64
	TxnsPerSec      float64
	LatencyMs       live.HistSnap
	BalanceSum      int64
	Consistent      bool
}

func main() {
	addr := flag.String("addr", "", "drive an external dbserver at this address")
	engines := flag.String("engines", "", "self-host these architectures (comma list or \"all\"); mutually exclusive with -addr")
	sessions := flag.Int("sessions", 1000, "concurrent sessions (TCP connections)")
	txns := flag.Int("txns", 3, "committed transactions per session")
	pages := flag.Int("pages", 64, "balance pages (self-host preload; must match the server's bank)")
	value := flag.Int64("value", 1000, "initial balance per page")
	seed := flag.Int64("seed", 1, "base RNG seed (worker w uses seed+w)")
	liveAddr := flag.String("live", "", "serve /metrics and /progress on this address (empty: off)")
	flag.Parse()

	opt := options{
		Sessions: *sessions,
		Txns:     *txns,
		Pages:    *pages,
		Value:    *value,
		Seed:     *seed,
	}
	if _, err := run(*addr, *engines, opt, *liveAddr); err != nil {
		fmt.Fprintln(os.Stderr, "dbload:", err)
		os.Exit(1)
	}
}

// run drives the load, prints one row per engine and returns the rows; it
// fails if any row's balance drifted.
func run(addr, engines string, opt options, liveAddr string) ([]engineResult, error) {
	if (addr == "") == (engines == "") {
		return nil, errors.New("pass exactly one of -addr or -engines")
	}
	if opt.Pages < 2 {
		return nil, errors.New("-pages must be at least 2 (transfers need two distinct pages)")
	}

	clock := live.Wall()
	prog := live.NewProgress(clock, "dbload")
	if liveAddr != "" {
		obs, err := live.Serve(liveAddr, live.Default(), prog)
		if err != nil {
			return nil, err
		}
		defer obs.Close()
		fmt.Printf("dbload: live metrics on http://%s/metrics\n", obs.Addr())
	}

	var results []engineResult
	if addr != "" {
		er, err := driveEngine("external", addr, opt, clock, prog)
		if err != nil {
			return nil, err
		}
		results = append(results, er)
	} else {
		names, err := engine.Select(engines)
		if err != nil {
			return nil, err
		}
		prog.AddTotal(int64(len(names) * opt.Sessions * opt.Txns))
		for _, name := range names {
			er, err := driveSelfHosted(name, opt, clock, prog)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			results = append(results, er)
		}
	}

	for _, er := range results {
		status := "OK"
		if !er.Consistent {
			status = "DRIFT"
		}
		fmt.Printf("%-12s %7d txns %8.1f txn/s  p50 %6.2fms p95 %6.2fms p99 %6.2fms  deadlock %5d  busy %5d  balance %s\n",
			er.Name, er.Txns, er.TxnsPerSec,
			er.LatencyMs.P50, er.LatencyMs.P95, er.LatencyMs.P99,
			er.DeadlockRetries, er.BusyRetries, status)
	}
	for _, er := range results {
		if !er.Consistent {
			return results, fmt.Errorf("%s: balance sum %d after run, want %d — committed writes lost or leaked",
				er.Name, er.BalanceSum, int64(opt.Pages)*opt.Value)
		}
	}
	return results, nil
}

// driveSelfHosted starts an in-process server for the named architecture
// on an ephemeral loopback port, drives it, and tears it down.
func driveSelfHosted(name string, opt options, clock live.Clock, prog *live.Progress) (engineResult, error) {
	eng, err := server.NewEngine(name)
	if err != nil {
		return engineResult{}, err
	}
	if err := server.InitPages(eng, opt.Pages, opt.Value); err != nil {
		return engineResult{}, err
	}
	srv := server.New(eng, server.Config{Clock: clock, Metrics: server.NewMetrics(clock)})
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return engineResult{}, err
	}
	defer srv.Close()
	return driveEngine(name, bound.String(), opt, clock, prog)
}

// driveEngine runs the full load against one server address and audits the
// balance invariant afterwards.
func driveEngine(name, addr string, opt options, clock live.Clock, prog *live.Progress) (engineResult, error) {
	hist := live.Default().Histogram("dbload." + name + ".txn_ms")
	var committed, retries, busyRetries atomic.Int64
	errc := make(chan error, opt.Sessions)
	var wg sync.WaitGroup
	start := clock.Now()
	for w := 0; w < opt.Sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errc <- session(addr, w, opt, clock, hist, &committed, &retries, &busyRetries, prog)
		}(w)
	}
	wg.Wait()
	elapsed := float64(clock.Now().Sub(start).Microseconds()) / 1000
	close(errc)
	for err := range errc {
		if err != nil {
			return engineResult{}, err
		}
	}

	sum, stats, err := audit(addr, opt.Pages)
	if err != nil {
		return engineResult{}, err
	}
	// Row name: the canonical architecture name in self-host mode; what the
	// server reports (Stats.Engine is the kernel's descriptive name, e.g.
	// "wal(1 streams,page-mod)") when driving an external address.
	rowName := name
	if name == "external" {
		rowName = stats.Engine
	}
	er := engineResult{
		Name:            rowName,
		Txns:            committed.Load(),
		DeadlockRetries: retries.Load(),
		BusyRetries:     busyRetries.Load(),
		LatencyMs:       hist.Snap(),
		BalanceSum:      sum,
		Consistent:      sum == int64(opt.Pages)*opt.Value,
	}
	if elapsed > 0 {
		er.TxnsPerSec = float64(er.Txns) / (elapsed / 1000)
	}
	return er, nil
}

// session dials one connection and runs its share of the load: opt.Txns
// committed transactions, back to back.
func session(addr string, w int, opt options, clock live.Clock, hist *live.Histogram,
	committed, retries, busyRetries *atomic.Int64, prog *live.Progress) error {
	rng := rand.New(rand.NewSource(opt.Seed + int64(w)))
	c, err := dialRetry(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	for i := 0; i < opt.Txns; i++ {
		start := clock.Now()
		if err := transfer(c, rng, opt.Pages, retries, busyRetries); err != nil {
			return fmt.Errorf("session %d: %w", w, err)
		}
		hist.Observe(float64(clock.Now().Sub(start).Microseconds()) / 1000)
		committed.Add(1)
		prog.Add(1)
	}
	return nil
}

// dialRetry absorbs transient accept-queue overflow when a thousand
// sessions dial the same loopback listener at once.
func dialRetry(addr string) (*server.Client, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		c, err := server.Dial(addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		live.Sleep(time.Duration(attempt+1) * 2 * time.Millisecond)
	}
	return nil, fmt.Errorf("dial %s: %w", addr, lastErr)
}

// transfer runs one debit/credit transaction to commit, beginning a fresh
// transaction each time the previous one is killed as a deadlock victim or
// rejected at a kernel admission limit (busy). Busy retries back off with a
// seeded jitter so a thousand sessions don't re-storm a full intention
// list in lockstep.
func transfer(c *server.Client, rng *rand.Rand, pages int, retries, busyRetries *atomic.Int64) error {
	const maxAttempts = 10000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		txn, err := c.Begin()
		if err != nil {
			return err
		}
		err = moveFunds(c, txn, rng, pages)
		if err == nil {
			err = c.Commit(txn)
			if err == nil {
				return nil
			}
		}
		switch {
		case errors.Is(err, server.ErrDeadlock):
			retries.Add(1)
			continue
		case errors.Is(err, server.ErrBusy):
			busyRetries.Add(1)
			live.Sleep(time.Duration(rng.Intn(4)+1) * time.Millisecond)
			continue
		}
		_ = c.Abort(txn)
		return err
	}
	return fmt.Errorf("transaction still rejected after %d attempts", maxAttempts)
}

// moveFunds performs one debit/credit pair inside txn: it reads two
// distinct pages and moves a random amount from one to the other,
// preserving the bank's total balance.
func moveFunds(c *server.Client, txn uint64, rng *rand.Rand, pages int) error {
	from := int64(rng.Intn(pages))
	to := int64(rng.Intn(pages - 1))
	if to >= from {
		to++
	}
	amt := rng.Int63n(10) + 1

	fromImg, err := c.Read(txn, from)
	if err != nil {
		return err
	}
	toImg, err := c.Read(txn, to)
	if err != nil {
		return err
	}
	if err := c.Write(txn, from, server.EncodeBalance(server.DecodeBalance(fromImg)-amt)); err != nil {
		return err
	}
	return c.Write(txn, to, server.EncodeBalance(server.DecodeBalance(toImg)+amt))
}

// audit sums every balance page in one read-only transaction after the
// load has drained, and fetches the server's counter snapshot.
func audit(addr string, pages int) (int64, server.Stats, error) {
	c, err := dialRetry(addr)
	if err != nil {
		return 0, server.Stats{}, err
	}
	defer c.Close()
	txn, err := c.Begin()
	if err != nil {
		return 0, server.Stats{}, err
	}
	var sum int64
	for p := 0; p < pages; p++ {
		img, err := c.Read(txn, int64(p))
		if err != nil {
			return 0, server.Stats{}, fmt.Errorf("audit read page %d: %w", p, err)
		}
		sum += server.DecodeBalance(img)
	}
	if err := c.Commit(txn); err != nil {
		return 0, server.Stats{}, err
	}
	stats, err := c.Stats()
	if err != nil {
		return 0, server.Stats{}, err
	}
	return sum, stats, nil
}
