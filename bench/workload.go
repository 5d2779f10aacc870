package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs/live"
	"repro/internal/server"
)

// workload is one set of inputs. The names are fixed: later issues cite them.
type workload struct {
	name  string
	why   string
	pages int     // balance pages; the WAL's buffer pool holds 64
	file  bool    // file-backed data and log stores, else memory
	tcp   bool    // sessions over loopback TCP, else one in-process driver
	reads float64 // share of transactions that are read-only (8 reads)
}

var workloads = []workload{
	{name: "wire-uniform", pages: 4096, tcp: true,
		why: "4 TCP sessions, memory store, transfers over 4096 pages (64x the 64-page pool): no lock conflicts, no file I/O, so wire, session and Guard dominate; bypasses lockmgr waits and filestore"},
	{name: "hot-upgrade", pages: 8, tcp: true,
		why: "4 TCP sessions, memory store, the same transfers over 8 pages (fit the pool): the S-to-X upgrade deadlock storm, so lockmgr and retries dominate; kernel and store as in wire-uniform"},
	{name: "read-mostly", pages: 4096, tcp: true, reads: 0.9,
		why: "4 TCP sessions, memory store, 4096 pages, 90% read-only transactions of 8 reads beside 10% transfers: shows a commit-path gain that taxes reads, or the reverse"},
	{name: "durable-commit", pages: 1024, file: true, tcp: true,
		why: "4 TCP sessions, file-backed data and log stores, transfers over 1024 pages (16x the pool, evictions write pages): filestore append, fsync, fold and the WAL force path dominate"},
	{name: "crash-restart", pages: 1024,
		why: "1 in-process driver, memory store, 30000 seeded transfers over 1024 pages with no checkpoint, then crash and timed recovery: no wire, no lock waits, kernel and pagestore do everything"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	initialBalance = 1000
	readsPerQuery  = 8
	inFlightTxns   = 8  // left open, with writes, when the power is cut
	userBytesPerTx = 16 // a transfer commits two 8-byte balances
	maxAttempts    = 10000
)

// session is what a workload needs from the system: server.Client has these
// methods, and localSession provides them over an in-process engine.
type session interface {
	Begin() (uint64, error)
	Read(txn uint64, p int64) ([]byte, error)
	Write(txn uint64, p int64, data []byte) error
	Commit(txn uint64) error
}

// localSession drives an engine directly, one open transaction at a time.
type localSession struct {
	eng *engine.Engine
	txn *engine.Txn
}

func (s *localSession) Begin() (uint64, error) {
	t, err := s.eng.Begin()
	if err != nil {
		return 0, err
	}
	s.txn = t
	return t.ID(), nil
}

func (s *localSession) Read(_ uint64, p int64) ([]byte, error) {
	data, err := s.txn.Read(p)
	return data, s.retryable(err)
}

func (s *localSession) Write(_ uint64, p int64, data []byte) error {
	return s.retryable(s.txn.Write(p, data))
}

func (s *localSession) Commit(uint64) error { return s.retryable(s.txn.Commit()) }

// retryable aborts a transaction the kernel refused for now, as the server's
// dispatch does; a deadlock victim is already aborted.
func (s *localSession) retryable(err error) error {
	if errors.Is(err, engine.ErrBusy) {
		_ = s.txn.Abort() // ErrDone after a refused commit, which released already
	}
	return err
}

// tracedSession leaves a client span around every call, in the session's
// pending list: runTxn keeps the spans of a transaction it measured and drops
// the rest, so that calls and transaction spans cover the same transactions.
type tracedSession struct {
	inner session
	tr    *tracer
	c     *clientState
}

func (s *tracedSession) record(txn uint64, op opID, start int64) {
	s.c.pending = append(s.c.pending, span{txn: txn, layer: layerClient, op: op, parent: opTxn, start: start, end: s.tr.now()})
}

func (s *tracedSession) Begin() (uint64, error) {
	start := s.tr.now()
	txn, err := s.inner.Begin()
	s.record(txn, opBegin, start)
	return txn, err
}

func (s *tracedSession) Read(txn uint64, p int64) ([]byte, error) {
	defer s.record(txn, opRead, s.tr.now())
	return s.inner.Read(txn, p)
}

func (s *tracedSession) Write(txn uint64, p int64, data []byte) error {
	defer s.record(txn, opWrite, s.tr.now())
	return s.inner.Write(txn, p, data)
}

func (s *tracedSession) Commit(txn uint64) error {
	defer s.record(txn, opCommit, s.tr.now())
	return s.inner.Commit(txn)
}

// The phases of one repeat, published to the sessions.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// clientState is one session's generator, tallies and acknowledged effects.
type clientState struct {
	rng     *rand.Rand
	delta   []int64 // per page: sum of the amounts every acknowledged commit moved
	spans   []span  // traced: the measured transactions and their calls
	pending []span  // traced: the calls of the transaction in progress

	lat                         []int64 // ns, begin of first attempt to commit ack, measured phase only
	commits, attempts, userByte int64   // measured phase only
	deadlocks, busies           int64
}

// txnPlan is one generated transaction: a transfer between two pages or a
// read-only query.
type txnPlan struct {
	from, to, amt int64
	reads         [readsPerQuery]int64
	readOnly      bool
}

func (c *clientState) plan(w workload) txnPlan {
	var p txnPlan
	if w.reads > 0 && c.rng.Float64() < w.reads {
		p.readOnly = true
		for i := range p.reads {
			p.reads[i] = int64(c.rng.Intn(w.pages))
		}
		return p
	}
	p.from = int64(c.rng.Intn(w.pages))
	p.to = int64(c.rng.Intn(w.pages - 1))
	if p.to >= p.from {
		p.to++
	}
	p.amt = c.rng.Int63n(10) + 1
	return p
}

// attempt runs the plan once, to commit or to the first error.
func attempt(s session, p txnPlan) (uint64, error) {
	txn, err := s.Begin()
	if err != nil {
		return txn, err
	}
	if p.readOnly {
		for _, page := range p.reads {
			if _, err := s.Read(txn, page); err != nil {
				return txn, err
			}
		}
		return txn, s.Commit(txn)
	}
	fromImg, err := s.Read(txn, p.from)
	if err != nil {
		return txn, err
	}
	toImg, err := s.Read(txn, p.to)
	if err != nil {
		return txn, err
	}
	if err := s.Write(txn, p.from, server.EncodeBalance(server.DecodeBalance(fromImg)-p.amt)); err != nil {
		return txn, err
	}
	if err := s.Write(txn, p.to, server.EncodeBalance(server.DecodeBalance(toImg)+p.amt)); err != nil {
		return txn, err
	}
	return txn, s.Commit(txn)
}

// runTxn drives one generated transaction to commit, retrying at once when
// the system aborts it, and records it if the whole of it fell in the
// measured phase.
func (c *clientState) runTxn(s session, w workload, phase *atomic.Int32, tr *tracer) error {
	p := c.plan(w)
	c.pending = c.pending[:0]
	measured := phase.Load() == phaseMeasure
	start := time.Now()
	var traceStart int64
	if tr != nil {
		traceStart = tr.now()
	}
	var attempts, deadlocks, busies int64
	for {
		attempts++
		if attempts > maxAttempts {
			return fmt.Errorf("transaction still rejected after %d attempts", maxAttempts)
		}
		txn, err := attempt(s, p)
		switch {
		case err == nil:
			if !p.readOnly {
				c.delta[p.from] -= p.amt
				c.delta[p.to] += p.amt
			}
			if measured && phase.Load() == phaseMeasure {
				c.lat = append(c.lat, int64(time.Since(start)))
				c.commits++
				c.attempts += attempts
				c.deadlocks += deadlocks
				c.busies += busies
				if !p.readOnly {
					c.userByte += userBytesPerTx
				}
				if tr != nil {
					c.spans = append(c.spans, span{txn: txn, layer: layerClient, op: opTxn, start: traceStart, end: tr.now()})
					c.spans = append(c.spans, c.pending...)
				}
			}
			return nil
		case errors.Is(err, server.ErrDeadlock), errors.Is(err, engine.ErrDeadlock):
			deadlocks++
		case errors.Is(err, server.ErrBusy), errors.Is(err, engine.ErrBusy):
			busies++
			time.Sleep(time.Duration(c.rng.Intn(200)+50) * time.Microsecond)
		default:
			return err
		}
	}
}

// repeatConfig is one repeat: a fresh engine, a load, a crash and a recovery.
type repeatConfig struct {
	w       workload
	arch    string
	dir     string // parent of the run's store directory
	seed    int64
	clients int
	warmup  time.Duration // TCP workloads
	slice   time.Duration
	txns    int  // in-process workloads: exactly this many transfers
	traced  bool // attach the tracer and the program's own metrics
}

// layerSums are cumulative sums read off the program's own metrics, in µs.
type layerSums struct {
	serviceAll, serviceRW     float64 // server.Metrics service time
	guardWaitAll, guardWaitRW float64 // live.GuardMetrics
	guardHoldAll, guardHoldRW float64
	kernel, store             float64 // tracer
}

func (a layerSums) sub(b layerSums) layerSums {
	return layerSums{
		a.serviceAll - b.serviceAll, a.serviceRW - b.serviceRW,
		a.guardWaitAll - b.guardWaitAll, a.guardWaitRW - b.guardWaitRW,
		a.guardHoldAll - b.guardHoldAll, a.guardHoldRW - b.guardHoldRW,
		a.kernel - b.kernel, a.store - b.store,
	}
}

// repeatResult is what one repeat measured.
type repeatResult struct {
	setupS    float64
	windowS   float64
	lat       []int64 // ns per committed transaction in the window
	commits   int64
	attempts  int64
	deadlocks int64
	busies    int64
	userBytes int64
	counts    meterCounts // store traffic in the window

	recoverMs   float64
	loggedTxns  int64 // commits in the log the recovery read
	logRecords  int64 // WAL records the recovery scanned
	heapMB      float64
	auditedPage int

	// traced repeats only
	spans              []span
	t1, t2             int64 // window, ns since the tracer's epoch
	crashAt, recoverAt int64
	sums               layerSums
	commitHoldP50Us    float64
	commitWaitP99Us    float64
}

// harness is everything one repeat sets up before its load starts: the
// engine on fresh stores, the preloaded pages, the server and its dialled
// sessions. Building it is what setup_s times.
type harness struct {
	rig      *rig
	tr       *tracer
	mx       *server.Metrics
	gm       *live.GuardMetrics
	srv      *server.Server
	conns    []*server.Client
	sessions []session
	clients  []*clientState
	setupS   float64
}

func setUp(cfg repeatConfig) (h *harness, err error) {
	start := time.Now()
	h = &harness{}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	w := cfg.w
	if cfg.traced {
		h.tr = newTracer()
	}
	dir := ""
	if w.file {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, err
		}
		if dir, err = os.MkdirTemp(cfg.dir, "run-"); err != nil {
			return nil, err
		}
	}
	if h.rig, err = buildEngine(cfg.arch, dir, h.tr); err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	eng := h.rig.eng
	if err := h.rig.preload(w.pages); err != nil {
		return nil, err
	}
	if cfg.traced {
		h.gm = live.NewGuardMetrics(live.Wall())
		eng.Guard().SetMetrics(h.gm)
	}
	if w.tcp {
		if cfg.traced {
			h.mx = server.NewMetrics(live.Wall())
		}
		h.srv = server.New(eng, server.Config{Metrics: h.mx})
		addr, err := h.srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.clients; i++ {
			c, err := server.Dial(addr.String())
			if err != nil {
				return nil, err
			}
			h.conns = append(h.conns, c)
			h.sessions = append(h.sessions, c)
		}
	} else {
		h.sessions = append(h.sessions, &localSession{eng: eng})
	}
	for i := range h.sessions {
		c := &clientState{
			rng:   rand.New(rand.NewSource(cfg.seed + int64(i))),
			delta: make([]int64, w.pages),
		}
		h.clients = append(h.clients, c)
		if cfg.traced {
			h.sessions[i] = &tracedSession{inner: h.sessions[i], tr: h.tr, c: c}
		}
	}
	h.setupS = time.Since(start).Seconds()
	return h, nil
}

// close ends the sessions, stops the server and removes the stores.
func (h *harness) close() {
	for _, c := range h.conns {
		c.Close()
	}
	if h.srv != nil {
		h.srv.Close()
	}
	if h.rig != nil {
		h.rig.close()
	}
}

// sums reads the cumulative layer sums off the attached metrics and tracer.
func (h *harness) sums() layerSums {
	var s layerSums
	if h.mx != nil {
		for op := server.OpBegin; op <= server.OpStats; op++ {
			us := h.mx.ServiceHist(op).Sum() * 1000
			s.serviceAll += us
			if op == server.OpRead || op == server.OpWrite {
				s.serviceRW += us
			}
		}
	}
	for op := live.GuardBegin; op <= live.GuardOther; op++ {
		wait, hold := h.gm.Wait(op).Sum()*1000, h.gm.Hold(op).Sum()*1000
		s.guardWaitAll += wait
		s.guardHoldAll += hold
		if op == live.GuardRead || op == live.GuardWrite {
			s.guardWaitRW += wait
			s.guardHoldRW += hold
		}
	}
	s.kernel = float64(h.tr.kernelNs.Load()) / 1000
	s.store = float64(h.tr.storeNs.Load()) / 1000
	return s
}

// runRepeat sets up a fresh engine, loads it, cuts the power with
// transactions in flight, times the recovery and audits the outcome. It
// fails if any page differs from its initial balance plus the acknowledged
// transfers, before the crash or after the recovery.
func runRepeat(cfg repeatConfig) (*repeatResult, error) {
	h, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	w, eng, tr := cfg.w, h.rig.eng, h.tr
	res := &repeatResult{setupS: h.setupS}

	// Load. A TCP workload runs its sessions for the warm-up and the slice;
	// an in-process workload runs exactly cfg.txns transactions, all
	// measured, so that its counts repeat.
	var phase atomic.Int32
	var before, after meterCounts
	var sumsBefore, sumsAfter layerSums
	mark := func(c *meterCounts, s *layerSums, t *int64) time.Time {
		*c = h.rig.counts()
		if cfg.traced {
			*s = h.sums()
			*t = tr.now()
		}
		return time.Now()
	}
	var windowStart, windowEnd time.Time
	if w.tcp {
		errs := make([]error, len(h.clients))
		var wg sync.WaitGroup
		for i := range h.clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for phase.Load() != phaseStop {
					if err := h.clients[i].runTxn(h.sessions[i], w, &phase, tr); err != nil {
						errs[i] = fmt.Errorf("session %d: %w", i, err)
						return
					}
				}
			}(i)
		}
		time.Sleep(cfg.warmup)
		windowStart = mark(&before, &sumsBefore, &res.t1)
		phase.Store(phaseMeasure)
		time.Sleep(cfg.slice)
		phase.Store(phaseStop)
		windowEnd = mark(&after, &sumsAfter, &res.t2)
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
	} else {
		windowStart = mark(&before, &sumsBefore, &res.t1)
		phase.Store(phaseMeasure)
		for i := 0; i < cfg.txns; i++ {
			if err := h.clients[0].runTxn(h.sessions[0], w, &phase, tr); err != nil {
				return nil, err
			}
		}
		windowEnd = mark(&after, &sumsAfter, &res.t2)
	}
	res.windowS = windowEnd.Sub(windowStart).Seconds()
	res.counts = after.sub(before)
	res.sums = sumsAfter.sub(sumsBefore)
	for _, c := range h.clients {
		res.lat = append(res.lat, c.lat...)
		res.commits += c.commits
		res.attempts += c.attempts
		res.deadlocks += c.deadlocks
		res.busies += c.busies
		res.userBytes += c.userByte
		res.spans = append(res.spans, c.spans...)
	}
	if !w.tcp {
		// Without a server the client's calls are the service time.
		for _, s := range res.spans {
			if s.op != opTxn {
				us := float64(s.dur()) / 1000
				res.sums.serviceAll += us
				if s.op == opRead || s.op == opWrite {
					res.sums.serviceRW += us
				}
			}
		}
	}

	// What every page must hold: its initial balance plus every transfer a
	// session saw acknowledged, warm-up included.
	want := make([]int64, w.pages)
	for p := range want {
		want[p] = initialBalance
		for _, c := range h.clients {
			want[p] += c.delta[p]
		}
	}

	// Audit the live state through a read-only transaction on the path the
	// load used.
	if err := auditLive(h.sessions[0], want); err != nil {
		return nil, fmt.Errorf("%s/%s: live audit: %w", w.name, cfg.arch, err)
	}
	if h.srv != nil {
		h.srv.Close()
	}

	// Leave transactions in flight with writes, commit one more transfer so
	// that the log force carries their records to the medium, then cut the
	// power. The stores keep only what was synced; recovery must leave no
	// trace of the losers.
	losers := inFlightTxns
	if losers > w.pages/2 {
		losers = w.pages / 2
	}
	for i := 0; i < losers; i++ {
		t, err := eng.Begin()
		if err != nil {
			return nil, err
		}
		if err := t.Write(int64(i), server.EncodeBalance(-777)); err != nil {
			return nil, err
		}
	}
	last := txnPlan{from: int64(losers), to: int64(losers + 1), amt: 1}
	if _, err := attempt(&localSession{eng: eng}, last); err != nil {
		return nil, fmt.Errorf("%s/%s: last commit before the crash: %w", w.name, cfg.arch, err)
	}
	want[last.from] -= last.amt
	want[last.to] += last.amt
	res.loggedTxns, _, _ = eng.Stats()
	if cfg.traced {
		res.crashAt = tr.now()
	}
	eng.Crash()
	recoverStart := time.Now()
	if err := eng.Recover(); err != nil {
		return nil, fmt.Errorf("%s/%s: recover: %w", w.name, cfg.arch, err)
	}
	res.recoverMs = float64(time.Since(recoverStart)) / 1e6
	if cfg.traced {
		res.recoverAt = tr.now()
	}
	res.logRecords = eng.Guard().Stats()["scanned"]

	for p, v := range want {
		img, err := eng.ReadCommitted(int64(p))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: durability audit: page %d: %w", w.name, cfg.arch, p, err)
		}
		if got := server.DecodeBalance(img); got != v {
			return nil, fmt.Errorf("%s/%s: durability audit: page %d holds %d after recovery, acknowledged commits make it %d",
				w.name, cfg.arch, p, got, v)
		}
	}
	res.auditedPage = len(want)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if cfg.traced {
		res.spans = append(res.spans, tr.spans...)
		res.commitHoldP50Us = h.gm.Hold(live.GuardCommit).Quantile(0.50) * 1000
		res.commitWaitP99Us = h.gm.Wait(live.GuardCommit).Quantile(0.99) * 1000
	}
	return res, nil
}

// auditLive reads every page in one read-only transaction and compares it
// with what the acknowledged commits make it.
func auditLive(s session, want []int64) error {
	txn, err := s.Begin()
	if err != nil {
		return err
	}
	for p, v := range want {
		img, err := s.Read(txn, int64(p))
		if err != nil {
			return fmt.Errorf("page %d: %w", p, err)
		}
		if got := server.DecodeBalance(img); got != v {
			return fmt.Errorf("page %d holds %d, acknowledged commits make it %d", p, got, v)
		}
	}
	return s.Commit(txn)
}
