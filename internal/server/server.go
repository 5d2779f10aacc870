package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs/live"
)

// Config tunes a Server. The zero value is usable: wall clock, no metrics,
// discarded logs.
type Config struct {
	// Clock supplies service-time measurements; nil means live.Wall().
	Clock live.Clock
	// Metrics receives per-op service times, the in-flight session gauge,
	// and request counters; nil disables instrumentation.
	Metrics *Metrics
	// Log receives one line per accept error and per session protocol
	// error; nil discards. (Output goes through an injected writer, never
	// a process-global stream.)
	Log io.Writer
}

// Server serves the wire protocol over TCP for one engine.Engine. Each
// accepted connection is one session, handled by its own goroutine; a
// session may interleave any number of concurrent transactions (the handle
// the client names in Begin multiplexes them), but frames on one connection
// are processed strictly in order.
//
// Transactions are owned by their session: a handle names a transaction on
// the connection whose Begin opened it and nowhere else, and any transaction
// still open when the session ends is aborted, so a dropped client cannot
// strand page locks and block the rest of the system.
type Server struct {
	eng   *engine.Engine
	clock live.Clock
	mx    *Metrics
	log   io.Writer

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// New builds a server over eng.
func New(eng *engine.Engine, cfg Config) *Server {
	clock := cfg.Clock
	if clock == nil {
		clock = live.Wall()
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	return &Server{
		eng:   eng,
		clock: clock,
		mx:    cfg.Metrics,
		log:   logw,
		conns: make(map[net.Conn]bool),
	}
}

// Engine returns the served engine (for maintenance surfaces: Guard(),
// Crash/Recover in tests, stats).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Metrics returns the attached metrics (nil when none).
func (s *Server) Metrics() *Metrics { return s.mx }

// ErrClosed is returned by Serve after Close.
var ErrClosed = errors.New("server: closed")

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves in
// a background goroutine until Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts sessions on ln until Close (or a fatal listener error). It
// owns ln and closes it on return.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			fmt.Fprintf(s.log, "server: accept: %v\n", err)
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes every live session's connection, and waits
// for their handlers (which abort any open transactions) to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	sort.Slice(conns, func(i, j int) bool {
		return conns[i].RemoteAddr().String() < conns[j].RemoteAddr().String()
	})
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// stats assembles the OpStats reply.
func (s *Server) stats() Stats {
	commits, aborts, deadlocks := s.eng.Stats()
	return Stats{
		Engine:    s.eng.Name(),
		Commits:   commits,
		Aborts:    aborts,
		Deadlocks: deadlocks,
		Sessions:  s.mx.Sessions(),
	}
}

// handle runs one session: it answers length-prefixed request frames in
// order, one reply each. Any protocol error (malformed frame, unknown
// opcode) produces one StatusError response and closes the session — the
// stream cannot be trusted to be in sync afterwards.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.mx.SessionStarted()
	defer s.mx.SessionEnded()

	br := bufio.NewReaderSize(conn, 8<<10)
	bw := bufio.NewWriterSize(conn, 8<<10)
	txns := make(map[uint64]*engine.Txn)
	defer s.abortOpen(txns)

	var inbuf, outbuf []byte
	for {
		payload, err := ReadFrame(br, inbuf)
		if err != nil {
			if err != io.EOF {
				s.mx.protoError()
				fmt.Fprintf(s.log, "server: session %s: %v\n", conn.RemoteAddr(), err)
			}
			return
		}
		inbuf = payload[:0]
		req, err := DecodeRequest(payload)
		if err != nil {
			s.mx.protoError()
			fmt.Fprintf(s.log, "server: session %s: %v\n", conn.RemoteAddr(), err)
			resp := Response{Op: payload[0], Status: StatusError, Msg: err.Error()}
			outbuf = AppendResponse(outbuf[:0], resp)
			_ = WriteFrame(bw, outbuf)
			_ = bw.Flush()
			return
		}

		start := s.clock.Now()
		resp := s.dispatch(txns, req)
		s.mx.observe(metricOp(req.Op-1), float64(s.clock.Now().Sub(start))/1e6)
		switch resp.Status {
		case StatusDeadlock:
			s.mx.deadlock()
		case StatusBusy:
			s.mx.busy()
		}

		outbuf = AppendResponse(outbuf[:0], resp)
		if err := WriteFrame(bw, outbuf); err != nil {
			return
		}
		if frameBuffered(br) {
			continue // flushed with the next request's reply
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// frameBuffered reports whether br already holds the whole of the next
// frame. Only then may a reply wait unflushed: the rest of a partial frame
// may come only after the client has seen the replies so far. It never
// reads from the connection.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // cannot fail: four bytes are buffered
	return uint64(br.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// abortOpen rolls back every transaction the departing session left open,
// in ascending handle order so lock releases replay deterministically.
func (s *Server) abortOpen(txns map[uint64]*engine.Txn) {
	ids := make([]uint64, 0, len(txns))
	for id := range txns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		_ = txns[id].Abort()
	}
}

// dispatch executes one decoded request against the engine. txns is the
// session's live transaction table, keyed by the handles its Begins named.
func (s *Server) dispatch(txns map[uint64]*engine.Txn, req Request) Response {
	fail := func(err error) Response {
		return Response{Op: req.Op, Status: StatusError, Msg: err.Error()}
	}
	switch req.Op {
	case OpBegin:
		if txns[req.Txn] != nil {
			return fail(fmt.Errorf("server: transaction %d is already open on this session", req.Txn))
		}
		txn, err := s.eng.Begin()
		if err != nil {
			return fail(err)
		}
		txns[req.Txn] = txn
		return Response{Op: req.Op, Status: StatusOK}

	case OpStats:
		return Response{Op: req.Op, Status: StatusOK, Stats: s.stats()}
	}

	txn := txns[req.Txn]
	if txn == nil {
		return fail(fmt.Errorf("server: unknown transaction %d (not begun on this session)", req.Txn))
	}
	// retryable maps the engine's transient rejections onto wire statuses.
	// A deadlock victim is already aborted by the lock manager; a kernel
	// admission rejection (engine.ErrBusy, e.g. the overwriting engines'
	// fixed intention list) may leave the transaction open, so it is aborted
	// here — either way the client begins a fresh transaction and retries.
	retryable := func(err error) (Response, bool) {
		switch {
		case errors.Is(err, engine.ErrDeadlock):
			delete(txns, req.Txn)
			return Response{Op: req.Op, Status: StatusDeadlock}, true
		case errors.Is(err, engine.ErrBusy):
			_ = txn.Abort() // ErrDone when WriteAll has aborted it already
			delete(txns, req.Txn)
			return Response{Op: req.Op, Status: StatusBusy}, true
		}
		return Response{}, false
	}

	switch req.Op {
	case OpRead:
		data, err := txn.Read(req.Page)
		if resp, ok := retryable(err); ok {
			return resp
		}
		if err != nil {
			return fail(err)
		}
		return Response{Op: req.Op, Status: StatusOK, Data: data}

	case OpCommit:
		// WriteAll aborts the transaction on any failure, so a Commit
		// installs its whole write set or none of it.
		err := txn.WriteAll(req.Writes)
		if resp, ok := retryable(err); ok {
			return resp
		}
		delete(txns, req.Txn)
		if err != nil {
			return fail(err)
		}
		if err := txn.Commit(); err != nil {
			// A commit rejected at the admission limit has released its
			// locks without applying any effects (the intention record was
			// never published) — transient, so the client may retry.
			if errors.Is(err, engine.ErrBusy) {
				return Response{Op: req.Op, Status: StatusBusy}
			}
			return fail(err)
		}
		return Response{Op: req.Op, Status: StatusOK}

	case OpAbort:
		delete(txns, req.Txn)
		if err := txn.Abort(); err != nil {
			return fail(err)
		}
		return Response{Op: req.Op, Status: StatusOK}
	}
	return fail(fmt.Errorf("server: unhandled opcode %d", req.Op))
}
