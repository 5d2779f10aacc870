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
// Two load models:
//
//   - closed (default): -sessions workers each run -txns transactions
//     back-to-back; latency is per-transaction service time.
//   - open: a pacer schedules -rate arrivals/sec onto the session pool
//     regardless of how fast the server drains them; latency is measured
//     from the scheduled arrival instant, so queueing delay counts.
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
//	    [-mode closed|open] [-rate 2000] [-pages 64] [-value 1000]
//	    [-transfers 1] [-seed 1] [-live :8080]
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

	"repro/internal/obs/live"
	"repro/internal/server"
)

// options collects the knobs shared by every engine run.
type options struct {
	Mode      string
	Sessions  int
	Txns      int
	Pages     int
	Value     int64
	Transfers int
	Rate      float64
	Seed      int64
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
	mode := flag.String("mode", "closed", "load model: closed or open")
	sessions := flag.Int("sessions", 1000, "concurrent sessions (TCP connections)")
	txns := flag.Int("txns", 3, "committed transactions per session")
	pages := flag.Int("pages", 64, "balance pages (self-host preload; must match the server's bank)")
	value := flag.Int64("value", 1000, "initial balance per page")
	transfers := flag.Int("transfers", 1, "debit/credit transfers per transaction (each: 2 reads + 2 writes)")
	rate := flag.Float64("rate", 2000, "open mode: scheduled arrivals per second")
	seed := flag.Int64("seed", 1, "base RNG seed (worker w uses seed+w)")
	liveAddr := flag.String("live", "", "serve /metrics and /progress on this address (empty: off)")
	flag.Parse()

	opt := options{
		Mode:      *mode,
		Sessions:  *sessions,
		Txns:      *txns,
		Pages:     *pages,
		Value:     *value,
		Transfers: *transfers,
		Rate:      *rate,
		Seed:      *seed,
	}
	if err := run(*addr, *engines, opt, *liveAddr); err != nil {
		fmt.Fprintln(os.Stderr, "dbload:", err)
		os.Exit(1)
	}
}

func run(addr, engines string, opt options, liveAddr string) error {
	if (addr == "") == (engines == "") {
		return errors.New("pass exactly one of -addr or -engines")
	}
	if opt.Mode != "closed" && opt.Mode != "open" {
		return fmt.Errorf("unknown -mode %q (want closed or open)", opt.Mode)
	}
	if opt.Mode == "open" && opt.Rate <= 0 {
		return errors.New("-mode open needs -rate > 0")
	}
	if opt.Pages < 2 {
		return errors.New("-pages must be at least 2 (transfers need two distinct pages)")
	}

	clock := live.Wall()
	prog := live.NewProgress(clock, "dbload")
	if liveAddr != "" {
		obs, err := live.Serve(liveAddr, live.Default(), prog)
		if err != nil {
			return err
		}
		defer obs.Close()
		fmt.Printf("dbload: live metrics on http://%s/metrics\n", obs.Addr())
	}

	var results []engineResult
	if addr != "" {
		er, err := driveEngine("external", addr, opt, clock, prog)
		if err != nil {
			return err
		}
		results = append(results, er)
	} else {
		names, err := server.EnginesByName(engines)
		if err != nil {
			return err
		}
		prog.AddTotal(int64(len(names) * opt.Sessions * opt.Txns))
		for _, name := range names {
			er, err := driveSelfHosted(name, opt, clock, prog)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
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
			return fmt.Errorf("%s: balance sum %d after run, want %d — committed writes lost or leaked",
				er.Name, er.BalanceSum, int64(opt.Pages)*opt.Value)
		}
	}
	return nil
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

	// Open mode feeds scheduled arrival instants to the session pool
	// through a channel; closed mode leaves jobs nil and workers self-pace.
	var jobs chan time.Time
	total := opt.Sessions * opt.Txns
	if opt.Mode == "open" {
		jobs = make(chan time.Time, total)
	}

	errc := make(chan error, opt.Sessions)
	var wg sync.WaitGroup
	start := clock.Now()
	for w := 0; w < opt.Sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errc <- session(addr, w, opt, clock, hist, jobs, &committed, &retries, &busyRetries, prog)
		}(w)
	}
	if jobs != nil {
		pacer := live.NewPacer(clock, opt.Rate)
		for i := 0; i < total; i++ {
			jobs <- pacer.Wait()
		}
		close(jobs)
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
	// "wal(1 streams,cyclic)") when driving an external address.
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
// committed transactions in closed mode, or however many arrivals it wins
// from the jobs channel in open mode.
func session(addr string, w int, opt options, clock live.Clock, hist *live.Histogram,
	jobs chan time.Time, committed, retries, busyRetries *atomic.Int64, prog *live.Progress) error {
	rng := rand.New(rand.NewSource(opt.Seed + int64(w)))
	c, err := dialRetry(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	runOne := func(arrival time.Time) error {
		if err := transfer(c, rng, opt, retries, busyRetries); err != nil {
			return fmt.Errorf("session %d: %w", w, err)
		}
		hist.Observe(float64(clock.Now().Sub(arrival).Microseconds()) / 1000)
		committed.Add(1)
		prog.Add(1)
		return nil
	}

	if jobs == nil {
		for i := 0; i < opt.Txns; i++ {
			if err := runOne(clock.Now()); err != nil {
				return err
			}
		}
		return nil
	}
	for arrival := range jobs {
		if err := runOne(arrival); err != nil {
			return err
		}
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
func transfer(c *server.Client, rng *rand.Rand, opt options, retries, busyRetries *atomic.Int64) error {
	const maxAttempts = 10000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		txn, err := c.Begin()
		if err != nil {
			return err
		}
		err = moveFunds(c, txn, rng, opt)
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

// moveFunds performs opt.Transfers debit/credit pairs inside txn: each
// reads two distinct pages and moves a random amount from one to the
// other, preserving the bank's total balance.
func moveFunds(c *server.Client, txn uint64, rng *rand.Rand, opt options) error {
	for i := 0; i < opt.Transfers; i++ {
		from := int64(rng.Intn(opt.Pages))
		to := int64(rng.Intn(opt.Pages - 1))
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
		if err := c.Write(txn, to, server.EncodeBalance(server.DecodeBalance(toImg)+amt)); err != nil {
			return err
		}
	}
	return nil
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
