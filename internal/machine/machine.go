package machine

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ActiveTxn is a transaction in execution on the machine.
type ActiveTxn struct {
	T    *workload.Txn
	Plan []PlannedRead

	// Aborted marks a transaction that will stop after a prefix of its
	// plan and run the model's undo actions instead of committing.
	Aborted bool

	next            int  // next plan entry to issue
	framesHeld      int  // cache frames currently held
	blockedPages    int  // updated pages held waiting for recovery data
	processed       int  // plan entries processed by a query processor
	writesRemaining int  // planned updated-page writes not yet durable
	locksGranted    bool // static lock set fully granted
	started         bool
	start           sim.Time
	lastWrite       sim.Time
	readsDone       bool
	commitHookDone  bool
	afterCommit     bool

	lockedPages []workload.PageID

	// QP is the query-processor index that produced the most recent update;
	// recovery models use it for log-processor selection.
	QP int

	// Wait-time breakdown, accumulated as the transaction moves through the
	// pipeline (milliseconds of virtual time). Waits on concurrent requests
	// overlap, so the components can sum to more than the completion time;
	// they answer "where did this transaction's requests spend their time",
	// not "what serialized it".
	admitAt        sim.Time
	commitStart    sim.Time
	lockWaitMs     float64 // admission -> full lock set granted
	qpWaitMs       float64 // query-processor queue time across plan entries
	diskWaitMs     float64 // data-disk queue + service across reads/writes
	recoveryWaitMs float64 // address resolution + blocked-for-recovery-data
	commitWaitMs   float64 // reads done -> commit/abort hook finished
}

// ID reports the transaction's workload identifier.
func (t *ActiveTxn) ID() int { return t.T.ID }

// Machine is one simulated database machine instance. Build it with New and
// execute the configured load with Run.
type Machine struct {
	cfg    Config
	eng    *sim.Engine
	rng    *sim.RNG
	model  Model
	place  Placement
	disks  []disk.Device
	cache  *cache.Cache
	qps    *sim.Resource
	locks  *lockTable
	window int

	pending []*workload.Txn
	active  []*ActiveTxn

	pagesProcessed int64
	completion     sim.Tally
	committed      int
	aborted        int
	endTime        sim.Time
	profile        *Profile

	admissionsHeld bool
	quiesceWaiters []func()

	sink        *obs.Sink
	hCompletion *obs.Histogram
	hLockWait   *obs.Histogram
	hQPWait     *obs.Histogram
	hDiskWait   *obs.Histogram
	hRecovery   *obs.Histogram
	hCommitWait *obs.Histogram
	waitLock    sim.Tally // per-committed-txn wait sums, in ms
	waitQP      sim.Tally
	waitDisk    sim.Tally
	waitRec     sim.Tally
	waitCommit  sim.Tally
}

// New builds a machine for cfg with the given recovery model (nil selects
// the bare machine).
func New(cfg Config, model Model) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		model = &Base{}
	}
	extra := 0
	if sr, ok := model.(SpaceRequirer); ok {
		extra = sr.ExtraPhysPages(cfg)
	}
	place := newPlacement(cfg.DataDisks, PagesPerTrack*TracksPerCyl, cfg.Workload.DBPages, extra)

	eng := sim.New()
	m := &Machine{
		cfg:    cfg,
		eng:    eng,
		rng:    sim.NewRNG(cfg.Seed),
		model:  model,
		place:  place,
		cache:  cache.New(eng, cfg.CacheFrames),
		qps:    sim.NewResource(eng, "query-processors", cfg.QueryProcessors),
		locks:  newLockTable(),
		window: cfg.prefetchWindow(),
		sink:   obs.NewSink(eng),
	}
	geom := place.geometry()
	params := disk.Default3350Params()
	for i := 0; i < cfg.DataDisks; i++ {
		name := fmt.Sprintf("data%d", i)
		if cfg.ParallelDisks {
			m.disks = append(m.disks, disk.NewParallel(eng, name, geom, params))
		} else {
			m.disks = append(m.disks, disk.NewConventional(eng, name, geom, params))
		}
		m.disks[i].Instrument(m.sink)
	}
	m.instrument()
	txns, err := workload.Generate(cfg.NumTxns, cfg.Workload, m.rng.Fork())
	if err != nil {
		return nil, err
	}
	m.pending = txns
	model.Attach(m)
	return m, nil
}

// instrument registers the machine's own metrics with the observability
// registry: the query-processor pool, the cache, lock-table counters, and
// the per-transaction lifecycle histograms that back the Result
// percentiles and wait breakdown.
func (m *Machine) instrument() {
	reg := m.sink.Reg
	m.cache.Instrument(m.sink)
	m.ObserveResource(m.qps)
	reg.Func("lock.waits", func() float64 { return float64(m.locks.Waits()) })
	reg.Func("engine.events", func() float64 { return float64(m.eng.Steps()) })
	reg.Func("txn.committed", func() float64 { return float64(m.committed) })
	reg.Func("txn.aborted", func() float64 { return float64(m.aborted) })
	reg.Func("machine.pagesProcessed", func() float64 { return float64(m.pagesProcessed) })
	m.hCompletion = reg.Histogram("txn.completion.ms")
	m.hLockWait = reg.Histogram("txn.wait.lock.ms")
	m.hQPWait = reg.Histogram("txn.wait.qp.ms")
	m.hDiskWait = reg.Histogram("txn.wait.disk.ms")
	m.hRecovery = reg.Histogram("txn.wait.recovery.ms")
	m.hCommitWait = reg.Histogram("txn.wait.commit.ms")
}

// Obs returns the machine's observability sink; recovery models use it to
// register their own metrics and emit trace events.
func (m *Machine) Obs() *obs.Sink { return m.sink }

// Metrics returns the machine's metrics registry.
func (m *Machine) Metrics() *obs.Registry { return m.sink.Reg }

// SetTracer attaches a tracer (such as an obs.TraceBuffer) so the run
// emits spans; call it after New and before Run. nil disables tracing.
func (m *Machine) SetTracer(tr obs.Tracer) { m.sink.SetTracer(tr) }

// resourceObs feeds a resource's per-request timings into wait/service
// histograms and, when tracing, per-server spans.
type resourceObs struct {
	m       *Machine
	hWaitMs *obs.Histogram
	hSvcMs  *obs.Histogram
}

// ResourceRequest implements sim.ResourceObserver.
func (o *resourceObs) ResourceRequest(r *sim.Resource, server int, enq, started, ended sim.Time) {
	o.hWaitMs.Observe((started - enq).ToMs())
	o.hSvcMs.Observe((ended - started).ToMs())
	if !o.m.sink.Tracing() {
		return
	}
	tr := o.m.sink.Tracer()
	track := fmt.Sprintf("%s/%d", r.Name(), server)
	if started > enq {
		tr.Span(track, "wait", enq, started, nil)
	}
	tr.Span(track, "service", started, ended, nil)
}

// ObserveResource wires a resource pool into the observability layer:
// busy/queue gauges, utilization and served-count stats, and queue-wait
// vs. service histograms (plus per-server trace spans when tracing).
// The machine observes its own query-processor pool; recovery models call
// this for the resources they create (interconnects, page-table CPUs).
func (m *Machine) ObserveResource(r *sim.Resource) {
	reg := m.sink.Reg
	pre := "resource." + r.Name()
	reg.RegisterGauge(pre+".busy", r.BusyTW())
	reg.RegisterGauge(pre+".queue", r.QueueTW())
	reg.Func(pre+".utilization", r.Utilization)
	reg.Func(pre+".served", func() float64 { return float64(r.Served()) })
	r.SetObserver(&resourceObs{
		m:       m,
		hWaitMs: reg.Histogram(pre + ".wait.ms"),
		hSvcMs:  reg.Histogram(pre + ".service.ms"),
	})
}

// txnTrack names the trace lane for one transaction.
func txnTrack(t *ActiveTxn) string { return fmt.Sprintf("txn/%d", t.T.ID) }

// Run executes the whole load and returns the collected statistics.
func Run(cfg Config, model Model) (*Result, error) {
	m, err := New(cfg, model)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// Run executes the whole load and returns the collected statistics. A
// Machine runs once.
func (m *Machine) Run() (*Result, error) {
	if m.cfg.ProfileEvery > 0 {
		m.startProfiler(m.cfg.ProfileEvery)
	}
	for i := 0; i < m.cfg.MPL && len(m.pending) > 0; i++ {
		m.admitNext()
	}
	m.schedule()
	m.eng.Run()
	if m.committed+m.aborted != m.cfg.NumTxns {
		return nil, m.stallError()
	}
	return m.result(), nil
}

func (m *Machine) stallError() error {
	detail := ""
	for _, t := range m.active {
		detail += fmt.Sprintf(" txn%d{next=%d/%d processed=%d frames=%d writes=%d locks=%t readsDone=%t commitHook=%t}",
			t.T.ID, t.next, len(t.Plan), t.processed, t.framesHeld,
			t.writesRemaining, t.locksGranted, t.readsDone, t.commitHookDone)
	}
	return fmt.Errorf("machine: stalled with %d+%d/%d finished (model %s):%s",
		m.committed, m.aborted, m.cfg.NumTxns, m.model.Name(), detail)
}

// --- accessors used by recovery models ---

// Eng returns the simulation engine.
func (m *Machine) Eng() *sim.Engine { return m.eng }

// RNG returns the machine's random stream.
func (m *Machine) RNG() *sim.RNG { return m.rng }

// Cfg returns the machine configuration.
func (m *Machine) Cfg() Config { return m.cfg }

// Place returns the physical placement map.
func (m *Machine) Place() Placement { return m.place }

// QPs returns the query-processor pool.
func (m *Machine) QPs() *sim.Resource { return m.qps }

// DBPhys maps a logical database page to the physical page holding its
// current version: the identity unless the model remaps the region.
func (m *Machine) DBPhys(p workload.PageID) int {
	if pm, ok := m.model.(PhysMapper); ok {
		return pm.DBPhys(p)
	}
	return int(p)
}

// NewAuxDisk creates an auxiliary conventional disk (log disk, page-table
// disk) with the given cylinder count, sharing the machine's disk timing
// parameters. Auxiliary disks are owned by the model.
func (m *Machine) NewAuxDisk(name string, cylinders int) disk.Device {
	geom := disk.Geometry{
		PagesPerTrack: PagesPerTrack,
		TracksPerCyl:  TracksPerCyl,
		Cylinders:     cylinders,
	}
	d := disk.NewConventional(m.eng, name, geom, disk.Default3350Params())
	d.Instrument(m.sink)
	return d
}

// SubmitPhys issues a read or write of physical pages to the data disks.
// The cache is page addressable, so conventional disks are driven one page
// per access (the paper's "separate access for each page"); parallel-access
// disks take one request per cylinder, which their hardware serves in a
// single access. done runs once every piece completes.
func (m *Machine) SubmitPhys(pages []int, write bool, done func()) {
	if len(pages) == 0 {
		if done != nil {
			done()
		}
		return
	}
	if !write {
		for _, p := range pages {
			m.cache.NoteAccess(p)
		}
	}
	type key struct{ disk, cyl int }
	groups := make(map[key][]int)
	order := make([]key, 0, 2)
	ppc := m.place.PagesPerCyl()
	for i, p := range pages {
		d, local := m.place.Locate(p)
		k := key{disk: d}
		if m.cfg.ParallelDisks {
			k.cyl = local / ppc
		} else {
			k.cyl = i // unique key: one access per page on conventional disks
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], local)
	}
	remaining := len(order)
	for _, k := range order {
		k := k
		m.disks[k.disk].Submit(&disk.Request{
			Pages: groups[k],
			Write: write,
			Done: func() {
				remaining--
				if remaining == 0 && done != nil {
					done()
				}
			},
		})
	}
}

// NoteTxnWrite records that a model-issued write belonging to t finished
// now; it advances the transaction's last-write time used for the
// completion-time metric.
func (m *Machine) NoteTxnWrite(t *ActiveTxn) { t.lastWrite = m.eng.Now() }

// --- transaction pipeline ---

func (m *Machine) admitNext() {
	if len(m.pending) == 0 || m.admissionsHeld {
		return
	}
	tx := m.pending[0]
	m.pending = m.pending[1:]
	t := &ActiveTxn{T: tx}
	t.Plan = m.model.Plan(t)
	if m.cfg.AbortFrac > 0 && m.rng.Bool(m.cfg.AbortFrac) && len(t.Plan) > 1 {
		// The transaction will abort after a random prefix of its plan.
		t.Aborted = true
		t.Plan = t.Plan[:m.rng.UniformInt(1, len(t.Plan))]
	}
	for i := range t.Plan {
		if t.Plan[i].Update {
			t.writesRemaining++
		}
	}
	m.active = append(m.active, t)
	t.admitAt = m.eng.Now()
	m.locks.AcquireAll(t, func() {
		t.locksGranted = true
		w := m.eng.Now() - t.admitAt
		t.lockWaitMs = w.ToMs()
		m.hLockWait.Observe(t.lockWaitMs)
		if w > 0 && m.sink.Tracing() {
			m.sink.Tracer().Span(txnTrack(t), "lock-wait", t.admitAt, m.eng.Now(), nil)
		}
		m.schedule()
	})
}

// schedule issues as many reads as frames, windows and locks allow. It is
// idempotent and called after every state change.
func (m *Machine) schedule() {
	for progress := true; progress; {
		progress = false
		for _, t := range m.active {
			if !t.locksGranted || t.next >= len(t.Plan) {
				continue
			}
			if t.framesHeld >= m.window {
				// The transaction's window is exhausted. Only if every held
				// frame is an updated page waiting for its recovery data is
				// it truly stuck — then the back-end controller asks the
				// model to expedite (the paper's forced log-page flush).
				if t.blockedPages > 0 && t.blockedPages >= t.framesHeld {
					m.model.OnCachePressure(t)
				}
				continue
			}
			if !m.cache.TryAlloc() {
				if m.cache.Blocked() > 0 {
					m.model.OnCachePressure(t)
				}
				return
			}
			m.issueNext(t)
			progress = true
		}
	}
}

func (m *Machine) issueNext(t *ActiveTxn) {
	if !t.started {
		t.started = true
		t.start = m.eng.Now()
	}
	pr := &t.Plan[t.next]
	t.next++
	t.framesHeld++
	resolveStart := m.eng.Now()
	m.model.BeforeRead(t, pr, func() {
		// Time spent resolving the page address (page-table lookups) is part
		// of the recovery-data wait.
		t.recoveryWaitMs += (m.eng.Now() - resolveStart).ToMs()
		readStart := m.eng.Now()
		m.SubmitPhys(pr.PhysPages, false, func() {
			t.diskWaitMs += (m.eng.Now() - readStart).ToMs()
			if m.sink.Tracing() {
				m.sink.Tracer().Span(txnTrack(t), "read", readStart, m.eng.Now(),
					map[string]any{"page": int(pr.Page)})
			}
			m.onReadDone(t, pr)
		})
	})
}

func (m *Machine) onReadDone(t *ActiveTxn, pr *PlannedRead) {
	enq := m.eng.Now()
	m.qps.RequestServer(pr.CPU, func(server int) {
		t.qpWaitMs += (m.eng.Now() - enq - pr.CPU).ToMs()
		m.onProcessed(t, pr, server)
	})
}

func (m *Machine) onProcessed(t *ActiveTxn, pr *PlannedRead, server int) {
	m.pagesProcessed++
	t.processed++
	if pr.Update {
		t.QP = server
		m.cache.AdjustBlocked(1)
		t.blockedPages++
		released := false
		blockStart := m.eng.Now()
		m.model.UpdateReady(t, pr, func() {
			if released {
				panic("machine: UpdateReady release called twice")
			}
			released = true
			blocked := m.eng.Now() - blockStart
			t.recoveryWaitMs += blocked.ToMs()
			if blocked > 0 && m.sink.Tracing() {
				m.sink.Tracer().Span(txnTrack(t), "recovery-wait", blockStart, m.eng.Now(),
					map[string]any{"page": int(pr.Page)})
			}
			m.cache.AdjustBlocked(-1)
			t.blockedPages--
			m.issueWrite(t, pr)
		})
	} else {
		m.releaseFrame(t)
	}
	if t.processed == len(t.Plan) && !t.readsDone {
		t.readsDone = true
		t.commitStart = m.eng.Now()
		hook := m.model.BeforeCommit
		if t.Aborted {
			hook = m.model.OnAbort
		}
		hook(t, func() {
			t.commitHookDone = true
			t.commitWaitMs = (m.eng.Now() - t.commitStart).ToMs()
			if m.sink.Tracing() {
				name := "commit"
				if t.Aborted {
					name = "abort"
				}
				m.sink.Tracer().Span(txnTrack(t), name, t.commitStart, m.eng.Now(), nil)
			}
			m.maybeAfterCommit(t)
		})
	}
	m.schedule()
}

func (m *Machine) issueWrite(t *ActiveTxn, pr *PlannedRead) {
	writeStart := m.eng.Now()
	m.SubmitPhys([]int{pr.WriteTo}, true, func() {
		t.diskWaitMs += (m.eng.Now() - writeStart).ToMs()
		if m.sink.Tracing() {
			m.sink.Tracer().Span(txnTrack(t), "write", writeStart, m.eng.Now(),
				map[string]any{"page": int(pr.Page)})
		}
		m.pagesProcessed++
		t.lastWrite = m.eng.Now()
		t.writesRemaining--
		m.releaseFrame(t)
		m.maybeAfterCommit(t)
	})
}

func (m *Machine) releaseFrame(t *ActiveTxn) {
	t.framesHeld--
	if t.framesHeld < 0 {
		panic("machine: negative frames held")
	}
	m.cache.Release()
	m.schedule()
}

func (m *Machine) maybeAfterCommit(t *ActiveTxn) {
	if !t.readsDone || !t.commitHookDone || t.writesRemaining > 0 || t.afterCommit {
		return
	}
	t.afterCommit = true
	if t.Aborted {
		// Undo already ran in OnAbort; nothing to publish.
		m.complete(t)
		return
	}
	m.model.AfterCommit(t, func() { m.complete(t) })
}

func (m *Machine) complete(t *ActiveTxn) {
	m.locks.ReleaseAll(t)
	if t.Aborted {
		m.aborted++
	} else {
		completionMs := (m.eng.Now() - t.start).ToMs()
		m.completion.Add(completionMs)
		m.committed++
		m.hCompletion.Observe(completionMs)
		m.hQPWait.Observe(t.qpWaitMs)
		m.hDiskWait.Observe(t.diskWaitMs)
		m.hRecovery.Observe(t.recoveryWaitMs)
		m.hCommitWait.Observe(t.commitWaitMs)
		m.waitLock.Add(t.lockWaitMs)
		m.waitQP.Add(t.qpWaitMs)
		m.waitDisk.Add(t.diskWaitMs)
		m.waitRec.Add(t.recoveryWaitMs)
		m.waitCommit.Add(t.commitWaitMs)
	}
	if m.sink.Tracing() {
		name := "txn(committed)"
		if t.Aborted {
			name = "txn(aborted)"
		}
		m.sink.Tracer().Span(txnTrack(t), name, t.admitAt, m.eng.Now(), map[string]any{
			"pages":          len(t.Plan),
			"lockWaitMs":     t.lockWaitMs,
			"qpWaitMs":       t.qpWaitMs,
			"diskWaitMs":     t.diskWaitMs,
			"recoveryWaitMs": t.recoveryWaitMs,
			"commitWaitMs":   t.commitWaitMs,
		})
	}
	for i, a := range m.active {
		if a == t {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	m.endTime = m.eng.Now()
	if len(m.active) == 0 && len(m.quiesceWaiters) > 0 {
		waiters := m.quiesceWaiters
		m.quiesceWaiters = nil
		for _, w := range waiters {
			w()
		}
	}
	m.admitNext()
	m.schedule()
}

// Finished reports whether the whole load has committed or aborted; models
// use it to stop self-rescheduling activities (checkpoint timers).
func (m *Machine) Finished() bool { return m.committed+m.aborted >= m.cfg.NumTxns }

// HoldAdmissions stops new transactions from being admitted; running
// transactions continue. Models use it for quiescing checkpoints.
func (m *Machine) HoldAdmissions() { m.admissionsHeld = true }

// ReleaseAdmissions resumes admissions, refilling to the multiprogramming
// level.
func (m *Machine) ReleaseAdmissions() {
	if !m.admissionsHeld {
		return
	}
	m.admissionsHeld = false
	for len(m.active) < m.cfg.MPL && len(m.pending) > 0 {
		m.admitNext()
	}
	m.schedule()
}

// OnQuiescent runs fn the next time no transaction is active (immediately
// if that is already the case). Combine with HoldAdmissions to drain the
// machine for a quiescing checkpoint.
func (m *Machine) OnQuiescent(fn func()) {
	if len(m.active) == 0 {
		fn()
		return
	}
	m.quiesceWaiters = append(m.quiesceWaiters, fn)
}

func (m *Machine) result() *Result {
	r := &Result{
		Name:           m.model.Name(),
		SimTime:        m.endTime,
		PagesProcessed: m.pagesProcessed,
		Committed:      m.committed,
		Aborted:        m.aborted,
		LockWaits:      m.locks.Waits(),
		QPUtil:         m.qps.Utilization(),
		MeanBlocked:    m.cache.MeanBlocked(),
		MaxBlocked:     m.cache.MaxBlocked(),
		MeanCacheUsed:  m.cache.MeanUsed(),
		Extra:          map[string]float64{},
	}
	if m.pagesProcessed > 0 {
		r.ExecPerPageMs = m.endTime.ToMs() / float64(m.pagesProcessed)
	}
	r.MeanCompletionMs = m.completion.Mean()
	var sum float64
	for _, d := range m.disks {
		u := d.Utilization()
		r.DataDiskUtils = append(r.DataDiskUtils, u)
		sum += u
		r.DataDiskAccesses += d.Accesses()
	}
	r.DataDiskUtil = sum / float64(len(m.disks))
	r.CacheHitRatio = m.cache.HitRatio()
	r.CompletionP50Ms = m.hCompletion.Percentile(50)
	r.CompletionP95Ms = m.hCompletion.Percentile(95)
	r.CompletionP99Ms = m.hCompletion.Percentile(99)
	r.Waits = WaitBreakdown{
		LockMs:     m.waitLock.Mean(),
		QPMs:       m.waitQP.Mean(),
		DiskMs:     m.waitDisk.Mean(),
		RecoveryMs: m.waitRec.Mean(),
		CommitMs:   m.waitCommit.Mean(),
	}
	model := m.model.Stats()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.Extra[k] = model[k]
		// Mirror model statistics into the registry so a metrics snapshot is
		// self-contained.
		m.sink.Reg.PutStat("model."+k, model[k])
	}
	r.Profile = m.profile
	return r
}
