package server

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/live"
)

// startServer brings up an in-process server over the named architecture
// with pages preloaded to value, on an ephemeral loopback port.
func startServer(t *testing.T, arch string, pages int, value int64) (*Server, string) {
	t.Helper()
	eng, err := NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := InitPages(eng, pages, value); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{Metrics: NewMetrics(live.Wall())})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSessionLifecycle(t *testing.T) {
	srv, addr := startServer(t, "wal-1stream", 4, 100)
	c := dialT(t, addr)

	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	img, err := c.Read(txn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeBalance(img); got != 100 {
		t.Fatalf("initial balance %d, want 100", got)
	}
	if err := c.Write(txn, 0, EncodeBalance(250)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(txn); err != nil {
		t.Fatal(err)
	}

	// A second transaction on the same session observes the commit.
	txn2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	img, err = c.Read(txn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeBalance(img); got != 250 {
		t.Fatalf("balance after commit %d, want 250", got)
	}
	// Abort rolls a write back.
	if err := c.Write(txn2, 0, EncodeBalance(999)); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(txn2); err != nil {
		t.Fatal(err)
	}
	if img, err := srv.Engine().ReadCommitted(0); err != nil || DecodeBalance(img) != 250 {
		t.Fatalf("after abort: balance %d (err %v), want 250", DecodeBalance(img), err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Engine == "" || stats.Commits < 1 || stats.Aborts < 1 {
		t.Fatalf("stats = %+v, want an engine name with ≥1 commit and ≥1 abort", stats)
	}
	if stats.Sessions < 1 {
		t.Fatalf("stats.Sessions = %d, want ≥ 1", stats.Sessions)
	}
}

func TestUnknownTransactionRejected(t *testing.T) {
	_, addr := startServer(t, "shadow", 2, 0)
	c := dialT(t, addr)
	err := c.Commit(12345)
	if err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("commit of never-begun txn: %v, want a status error", err)
	}
	// The session survives the error and can begin work.
	if _, err := c.Begin(); err != nil {
		t.Fatalf("begin after rejected commit: %v", err)
	}
}

// TestTxnsArePerSession: ids minted on one connection are invisible to
// another — a second session cannot commit (or abort) someone else's
// transaction.
func TestTxnsArePerSession(t *testing.T) {
	_, addr := startServer(t, "difffile", 2, 0)
	c1 := dialT(t, addr)
	c2 := dialT(t, addr)
	txn, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Commit(txn); err == nil {
		t.Fatal("session 2 committed session 1's transaction")
	}
	if err := c1.Commit(txn); err != nil {
		t.Fatalf("owner commit: %v", err)
	}
}

// TestDeadlockSurfacedAsRetryable manufactures a two-transaction deadlock
// over the wire and asserts the victim's call returns ErrDeadlock while the
// survivor completes.
func TestDeadlockSurfacedAsRetryable(t *testing.T) {
	_, addr := startServer(t, "wal-1stream", 2, 100)
	c1 := dialT(t, addr)
	c2 := dialT(t, addr)

	t1, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(t1, 0, EncodeBalance(1)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Write(t2, 1, EncodeBalance(2)); err != nil {
		t.Fatal(err)
	}

	// Each session's result on its own channel: which write returns first
	// is up to the scheduler, and the survivor must commit on its own session.
	err1, err2 := make(chan error, 1), make(chan error, 1)
	go func() { err1 <- c1.Write(t1, 1, EncodeBalance(3)) }()
	go func() { err2 <- c2.Write(t2, 0, EncodeBalance(4)) }()
	errA, errB := <-err1, <-err2

	victims := 0
	if errors.Is(errA, ErrDeadlock) {
		victims++
	}
	if errors.Is(errB, ErrDeadlock) {
		victims++
	}
	if victims != 1 {
		t.Fatalf("deadlock produced %d victims (errs %v / %v), want exactly 1", victims, errA, errB)
	}
	// The survivor's transaction is still usable end to end.
	if errA == nil {
		if err := c1.Commit(t1); err != nil {
			t.Fatalf("survivor commit: %v", err)
		}
	}
	if errB == nil {
		if err := c2.Commit(t2); err != nil {
			t.Fatalf("survivor commit: %v", err)
		}
	}
}

// TestSessionDropAbortsOpenTxns: a client that vanishes mid-transaction must
// not strand its page locks.
func TestSessionDropAbortsOpenTxns(t *testing.T) {
	_, addr := startServer(t, "verselect", 2, 100)
	c1 := dialT(t, addr)
	t1, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(t1, 0, EncodeBalance(55)); err != nil {
		t.Fatal(err)
	}
	c1.Close() // vanish holding an X lock on page 0

	// The handler aborts t1 asynchronously; a fresh session must be able to
	// take the lock promptly.
	c2 := dialT(t, addr)
	t2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		if err := c2.Write(t2, 0, EncodeBalance(77)); err != nil {
			done <- err
			return
		}
		done <- c2.Commit(t2)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after session drop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write after session drop still blocked — dropped session stranded its lock")
	}
	// The dropped transaction's write must not have survived.
	img, err := c2Read(c2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeBalance(img); got != 77 {
		t.Fatalf("balance %d, want 77 (dropped txn's 55 must be rolled back)", got)
	}
}

func c2Read(c *Client, page int64) ([]byte, error) {
	txn, err := c.Begin()
	if err != nil {
		return nil, err
	}
	img, err := c.Read(txn, page)
	if err != nil {
		return nil, err
	}
	return img, c.Commit(txn)
}

// TestMalformedFrameGetsErrorThenClose: a garbage opcode draws one
// StatusError response and the connection closes; an oversized header
// closes the connection outright.
func TestMalformedFrameGetsErrorThenClose(t *testing.T) {
	srv, addr := startServer(t, "ow-noundo", 2, 0)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, []byte{0xEE, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("expected a StatusError response, got %v", err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError {
		t.Fatalf("status %d, want StatusError", resp.Status)
	}
	if _, err := ReadFrame(conn, nil); err == nil {
		t.Fatal("session stayed open after protocol error")
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn2); err != nil && !errors.Is(err, io.EOF) {
		// ReadAll returning nil error means the server closed the socket,
		// which is what we want; a reset is equally acceptable.
		var ne net.Error
		if !errors.As(err, &ne) {
			t.Fatalf("oversized header: unexpected error %v", err)
		}
	}
	if srv.Metrics().Requests() != 0 {
		t.Fatalf("malformed frames were counted as served requests")
	}
}

// transferT is the test-side debit/credit transaction: move amt between two
// pages, retrying with a fresh transaction when chosen as deadlock victim.
func transferT(c *Client, rng *rand.Rand, pages int, retries *atomic.Int64) error {
	for attempt := 0; attempt < 1000; attempt++ {
		txn, err := c.Begin()
		if err != nil {
			return err
		}
		err = func() error {
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
			if err := c.Write(txn, from, EncodeBalance(DecodeBalance(fromImg)-amt)); err != nil {
				return err
			}
			return c.Write(txn, to, EncodeBalance(DecodeBalance(toImg)+amt))
		}()
		if err == nil {
			err = c.Commit(txn)
			if err == nil {
				return nil
			}
		}
		if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrBusy) {
			retries.Add(1)
			continue
		}
		c.Abort(txn)
		return err
	}
	return errors.New("starved: still a deadlock victim after 1000 attempts")
}

// TestConcurrentSessionsConsistentAfterCrash is the stress test: N sessions
// of conflicting debit/credit traffic against every architecture, then a
// crash and recovery, asserting the committed state still sums to the
// initial bank total. Run with -race.
func TestConcurrentSessionsConsistentAfterCrash(t *testing.T) {
	const (
		sessions = 16
		txns     = 3
		pages    = 8
		value    = int64(100)
	)
	for _, arch := range Architectures() {
		t.Run(arch, func(t *testing.T) {
			srv, addr := startServer(t, arch, pages, value)

			var retries atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, sessions)
			for w := 0; w < sessions; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					c, err := Dial(addr)
					if err != nil {
						errc <- fmt.Errorf("session %d: %w", w, err)
						return
					}
					defer c.Close()
					for i := 0; i < txns; i++ {
						if err := transferT(c, rng, pages, &retries); err != nil {
							errc <- fmt.Errorf("session %d txn %d: %w", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			commits, _, _ := srv.Engine().Stats()
			if commits < sessions*txns {
				t.Fatalf("%d commits, want ≥ %d", commits, sessions*txns)
			}
			if srv.Metrics().MaxSessions() < 2 {
				t.Fatalf("max concurrent sessions %d, want ≥ 2", srv.Metrics().MaxSessions())
			}

			// Quiesce the network layer, then crash and recover the engine.
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			eng := srv.Engine()
			eng.Crash()
			if err := eng.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			var sum int64
			for p := 0; p < pages; p++ {
				img, err := eng.ReadCommitted(int64(p))
				if err != nil {
					t.Fatalf("read committed page %d after recovery: %v", p, err)
				}
				sum += DecodeBalance(img)
			}
			if want := int64(pages) * value; sum != want {
				t.Fatalf("balance sum %d after crash+recover, want %d — committed transfers lost or leaked", sum, want)
			}
		})
	}
}

// TestServeAfterCloseRefuses: Close marks the server dead; Serve on a fresh
// listener must refuse rather than accept into a torn-down session table.
func TestServeAfterCloseRefuses(t *testing.T) {
	eng, err := NewEngine("shadow")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
}
