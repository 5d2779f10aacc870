// Command dbserver serves one recovery architecture over TCP.
//
// It builds the selected engine (any of the seven functional recovery
// architectures, wrapped in engine.Guard by construction), preloads a
// bank of balance pages, and then speaks the length-prefixed binary
// protocol of internal/server: Begin/Read/Write/Commit/Abort/Stats
// sessions, with deadlock victims surfaced as a retryable status code.
//
// Usage:
//
//	go run ./cmd/dbserver -arch wal-1stream [-addr 127.0.0.1:7070]
//	    [-pages 64] [-value 1000] [-live 127.0.0.1:8080]
//
// With -live, a live.Registry HTTP endpoint exposes the server's per-op
// service-time histograms, the in-flight session gauge, and the engine
// Guard's contention profile at /metrics (plus /debug/pprof).
//
// dbserver is a serving harness, not a simulator: wall-clock reads go
// through internal/obs/live's Clock, the one scope where host time is
// legal under simlint.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs/live"
	"repro/internal/server"
)

func main() {
	arch := flag.String("arch", "wal-1stream", "recovery architecture: "+strings.Join(server.Architectures(), ", "))
	addr := flag.String("addr", "127.0.0.1:7070", "listen address (host:0 picks an ephemeral port)")
	pages := flag.Int("pages", 64, "balance pages to preload (ids 0..pages-1)")
	value := flag.Int64("value", 1000, "initial balance per page")
	liveAddr := flag.String("live", "", "serve /metrics and /debug/pprof on this address (empty: off)")
	flag.Parse()

	if err := run(*arch, *addr, *pages, *value, *liveAddr); err != nil {
		fmt.Fprintln(os.Stderr, "dbserver:", err)
		os.Exit(1)
	}
}

func run(arch, addr string, pages int, value int64, liveAddr string) error {
	eng, err := server.NewEngine(arch)
	if err != nil {
		return err
	}
	if err := server.InitPages(eng, pages, value); err != nil {
		return err
	}

	clock := live.Wall()
	mx := server.NewMetrics(clock)
	gm := live.NewGuardMetrics(clock)
	eng.Guard().SetMetrics(gm)
	live.Default().AddCollector(mx)
	live.Default().AddCollector(gm)
	if liveAddr != "" {
		obs, err := live.Serve(liveAddr, live.Default(), nil)
		if err != nil {
			return err
		}
		defer obs.Close()
		fmt.Printf("dbserver: live metrics on http://%s/metrics\n", obs.Addr())
	}

	srv := server.New(eng, server.Config{Clock: clock, Metrics: mx, Log: os.Stderr})
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Printf("dbserver: %s serving %d pages (balance %d) on %s\n", arch, pages, value, bound)

	// Serve until the process is killed: Start's accept loop owns the
	// listener, so blocking forever here keeps the sessions alive.
	select {}
}
