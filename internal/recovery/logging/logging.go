// Package logging implements the paper's parallel-logging recovery
// architecture (Section 3.1): N log processors, each with a log disk, that
// assemble log fragments from the query processors into log pages. Updated
// data pages are blocked in the disk cache until their log records reach the
// log disk (the write-ahead rule), and commits force the partially-filled
// log pages holding the transaction's fragments.
//
// Both logical logging (small fragments, ten to a log page) and physical
// logging (a before-image page and an after-image page per update) are
// modeled, along with the four log-processor selection algorithms of
// Table 3 and the two query-processor/log-processor interconnects of
// Section 4.1.3 (a dedicated network of configurable bandwidth, or routing
// fragments through the disk cache).
package logging

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Mode selects logical or physical logging.
type Mode int

const (
	// Logical logs a small fragment per updated page.
	Logical Mode = iota
	// Physical logs full before- and after-image pages per updated page.
	Physical
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Physical {
		return "physical"
	}
	return "logical"
}

// Selection is a log-processor selection algorithm (paper Table 3).
type Selection int

const (
	// Cyclic: each query processor cycles among all log processors.
	Cyclic Selection = iota
	// Random: uniform random log processor per fragment.
	Random
	// QpNoMod: query-processor number mod number of log processors.
	QpNoMod
	// TranNoMod: transaction number mod number of log processors.
	TranNoMod
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	switch s {
	case Cyclic:
		return "cyclic"
	case Random:
		return "random"
	case QpNoMod:
		return "qpno-mod"
	case TranNoMod:
		return "tranno-mod"
	}
	return fmt.Sprintf("selection(%d)", int(s))
}

// Routing selects how fragments travel from query to log processors.
type Routing int

const (
	// DedicatedNet uses a separate interconnect of NetBandwidthMBs.
	DedicatedNet Routing = iota
	// ViaCache routes fragments through disk-cache frames.
	ViaCache
)

// The paper's log-processor calibration.
const (
	logPageBytes     = 4096                  // log page size
	fragCPU          = 1 * sim.Millisecond   // QP time to build a logical fragment
	physCPU          = 2 * sim.Millisecond   // QP time to build before/after images
	routeCPU         = 500 * sim.Microsecond // extra QP time when routing via the cache
	logDiskCylinders = 80                    // log disk size
)

// Config parameterizes the logging architecture.
type Config struct {
	LogProcessors   int
	Mode            Mode
	Selection       Selection
	Routing         Routing
	NetBandwidthMBs float64 // dedicated interconnect bandwidth (default 1.0)
	FragmentBytes   int     // logical fragment size (default 400)

	// CheckpointEvery, when positive, takes a system checkpoint at that
	// virtual-time interval. With QuiescingCheckpoint the machine stops
	// admitting transactions and drains first (the naive scheme); without
	// it the checkpoint runs in parallel with normal processing, as the
	// paper's reference [13] prescribes.
	CheckpointEvery     sim.Time
	QuiescingCheckpoint bool
}

// DefaultConfig is one log processor doing logical logging over a dedicated
// 1 MB/s interconnect — the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		LogProcessors:   1,
		Mode:            Logical,
		Selection:       Cyclic,
		Routing:         DedicatedNet,
		NetBandwidthMBs: 1.0,
		FragmentBytes:   400,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LogProcessors == 0 {
		c.LogProcessors = d.LogProcessors
	}
	if c.NetBandwidthMBs == 0 {
		c.NetBandwidthMBs = d.NetBandwidthMBs
	}
	if c.FragmentBytes == 0 {
		c.FragmentBytes = d.FragmentBytes
	}
	return c
}

type fragment struct {
	t       *machine.ActiveTxn
	release func()
}

type logPage struct {
	frags []*fragment
}

type logProcessor struct {
	idx      int
	disk     disk.Device
	nextPage int
	capacity int
	current  *logPage
	writes   int64
}

// Model is the parallel-logging recovery model. Create with New and pass to
// machine.Run.
type Model struct {
	machine.Base
	cfg Config

	lps       []*logProcessor
	net       *sim.Resource
	route     *sim.Resource
	rng       *sim.RNG
	cyclicIdx []int // per query processor

	unflushed  map[*machine.ActiveTxn]int
	committing map[*machine.ActiveTxn]func()
	updates    map[*machine.ActiveTxn][]int // home pages updated so far

	fragsSent   int64
	forcedSeals int64
	fullSeals   int64
	undoReads   int64
	undoWrites  int64
	checkpoints int64
}

// New returns a logging model with cfg (zero fields take defaults).
func New(cfg Config) *Model {
	return &Model{
		cfg:        cfg.withDefaults(),
		unflushed:  make(map[*machine.ActiveTxn]int),
		committing: make(map[*machine.ActiveTxn]func()),
		updates:    make(map[*machine.ActiveTxn][]int),
	}
}

// Name implements machine.Model.
func (l *Model) Name() string {
	return fmt.Sprintf("logging(%s,%d,%s)", l.cfg.Mode, l.cfg.LogProcessors, l.cfg.Selection)
}

// Attach implements machine.Model.
func (l *Model) Attach(m *machine.Machine) {
	l.Base.Attach(m)
	l.rng = m.RNG().Fork()
	l.cyclicIdx = make([]int, m.Cfg().QueryProcessors)
	for i := 0; i < l.cfg.LogProcessors; i++ {
		d := m.NewAuxDisk(fmt.Sprintf("log%d", i), logDiskCylinders)
		l.lps = append(l.lps, &logProcessor{
			idx:      i,
			disk:     d,
			capacity: d.Geom().Capacity(),
		})
	}
	switch l.cfg.Routing {
	case DedicatedNet:
		l.net = sim.NewResource(m.Eng(), "log-net", 1)
		m.ObserveResource(l.net)
	case ViaCache:
		// A handful of reserved frames carry in-transit fragments; the
		// paper found the cache path is never the constraint.
		l.route = sim.NewResource(m.Eng(), "log-route", 4)
		m.ObserveResource(l.route)
	}
	reg := m.Obs().Reg
	reg.Func("log.frags", func() float64 { return float64(l.fragsSent) })
	reg.Func("log.forcedSeals", func() float64 { return float64(l.forcedSeals) })
	reg.Func("log.fullSeals", func() float64 { return float64(l.fullSeals) })
	reg.Func("log.checkpoints", func() float64 { return float64(l.checkpoints) })
	if l.cfg.CheckpointEvery > 0 {
		l.scheduleCheckpoint()
	}
}

// scheduleCheckpoint arms the next checkpoint tick; ticks stop once the
// load has finished so the event queue can drain.
func (l *Model) scheduleCheckpoint() {
	l.M.Eng().After(l.cfg.CheckpointEvery, func() {
		if l.M.Finished() {
			return
		}
		l.takeCheckpoint(func() {
			if !l.M.Finished() {
				l.scheduleCheckpoint()
			}
		})
	})
}

// takeCheckpoint writes a checkpoint record to every log disk. The
// quiescing variant first drains the machine; the parallel variant (the
// paper's reference [13]) overlaps with normal processing.
func (l *Model) takeCheckpoint(done func()) {
	l.checkpoints++
	if o := l.M.Obs(); o.Tracing() {
		kind := "parallel"
		if l.cfg.QuiescingCheckpoint {
			kind = "quiescing"
		}
		o.Tracer().Instant("log", "checkpoint("+kind+")", l.M.Eng().Now())
	}
	perform := func(after func()) {
		l.forceFor(nil) // seal every partial log page
		remaining := len(l.lps)
		for _, lp := range l.lps {
			lp := lp
			pos := lp.nextPage
			lp.nextPage = (lp.nextPage + 1) % lp.capacity
			lp.writes++
			lp.disk.Submit(&disk.Request{Pages: []int{pos}, Write: true, Done: func() {
				remaining--
				if remaining == 0 {
					after()
				}
			}})
		}
	}
	if !l.cfg.QuiescingCheckpoint {
		perform(done)
		return
	}
	l.M.HoldAdmissions()
	l.M.OnQuiescent(func() {
		perform(func() {
			l.M.ReleaseAdmissions()
			done()
		})
	})
}

// Plan implements machine.Model: the standard plan plus the query-processor
// cost of constructing log records.
func (l *Model) Plan(t *machine.ActiveTxn) []machine.PlannedRead {
	plan := l.M.StandardPlan(t)
	extra := fragCPU
	if l.cfg.Mode == Physical {
		extra = physCPU
	}
	if l.cfg.Routing == ViaCache {
		extra += routeCPU
	}
	for i := range plan {
		if plan[i].Update {
			plan[i].CPU += extra
		}
	}
	return plan
}

// transferTime computes the interconnect time for nbytes at the configured
// bandwidth (MB/s => bytes/µs at 1.0).
func (l *Model) transferTime(nbytes int) sim.Time {
	return sim.Time(float64(nbytes) / l.cfg.NetBandwidthMBs)
}

func (l *Model) selectLP(t *machine.ActiveTxn) *logProcessor {
	n := len(l.lps)
	switch l.cfg.Selection {
	case Cyclic:
		qp := t.QP
		i := l.cyclicIdx[qp]
		l.cyclicIdx[qp] = (i + 1) % n
		return l.lps[i%n]
	case Random:
		return l.lps[l.rng.Intn(n)]
	case QpNoMod:
		return l.lps[t.QP%n]
	case TranNoMod:
		return l.lps[t.ID()%n]
	}
	panic("logging: unknown selection algorithm")
}

// UpdateReady implements machine.Model: build the log record, ship it to a
// log processor, and hold the data page until the record is durable.
func (l *Model) UpdateReady(t *machine.ActiveTxn, pr *machine.PlannedRead, release func()) {
	lp := l.selectLP(t)
	l.fragsSent++
	l.unflushed[t]++
	l.updates[t] = append(l.updates[t], pr.WriteTo)
	bytes := l.cfg.FragmentBytes
	if l.cfg.Mode == Physical {
		bytes = 2 * logPageBytes
	}
	deliver := func() {
		if l.cfg.Mode == Physical {
			l.deliverPhysical(lp, t, release)
		} else {
			l.deliverLogical(lp, t, release)
		}
	}
	switch l.cfg.Routing {
	case DedicatedNet:
		l.net.Request(l.transferTime(bytes), deliver)
	case ViaCache:
		// Through the cache the transfer runs at memory speed; the frame is
		// occupied for a fixed handoff time.
		l.route.Request(sim.Ms(0.5), deliver)
	}
}

// deliverLogical appends a fragment to the log processor's current page and
// seals the page when full (or immediately if its transaction is already
// committing).
func (l *Model) deliverLogical(lp *logProcessor, t *machine.ActiveTxn, release func()) {
	if lp.current == nil {
		lp.current = &logPage{}
	}
	lp.current.frags = append(lp.current.frags, &fragment{t: t, release: release})
	fragsPerPage := logPageBytes / l.cfg.FragmentBytes
	if len(lp.current.frags) >= fragsPerPage {
		l.fullSeals++
		l.seal(lp)
		return
	}
	if _, c := l.committing[t]; c {
		l.forcedSeals++
		l.seal(lp)
	}
}

// deliverPhysical writes the before- and after-image pages as two separate
// log-disk accesses; the data page is released when both are durable.
func (l *Model) deliverPhysical(lp *logProcessor, t *machine.ActiveTxn, release func()) {
	remaining := 2
	for i := 0; i < 2; i++ {
		page := lp.nextPage
		lp.nextPage = (lp.nextPage + 1) % lp.capacity
		lp.writes++
		lp.disk.Submit(&disk.Request{
			Pages: []int{page},
			Write: true,
			Done: func() {
				remaining--
				if remaining == 0 {
					l.recordFlushed(t)
					release()
				}
			},
		})
	}
}

// seal writes the log processor's current page to its log disk and, when the
// write completes, releases every data page whose fragment it carries.
func (l *Model) seal(lp *logProcessor) {
	page := lp.current
	lp.current = nil
	pos := lp.nextPage
	lp.nextPage = (lp.nextPage + 1) % lp.capacity
	lp.writes++
	o := l.M.Obs()
	var start sim.Time
	if o.Tracing() {
		start = l.M.Eng().Now()
	}
	lp.disk.Submit(&disk.Request{
		Pages: []int{pos},
		Write: true,
		Done: func() {
			if o.Tracing() {
				o.Tracer().Span(fmt.Sprintf("log/%d", lp.idx), "log-force",
					start, l.M.Eng().Now(), map[string]any{"frags": len(page.frags)})
			}
			for _, f := range page.frags {
				l.recordFlushed(f.t)
				f.release()
			}
		},
	})
}

// recordFlushed notes one of t's log records reaching stable storage and
// completes t's commit when the last one lands.
func (l *Model) recordFlushed(t *machine.ActiveTxn) {
	l.unflushed[t]--
	if l.unflushed[t] > 0 {
		return
	}
	delete(l.unflushed, t)
	if done, ok := l.committing[t]; ok {
		delete(l.committing, t)
		done()
	}
}

// BeforeCommit implements machine.Model: commit waits until every log record
// of the transaction is on a log disk, forcing partially-filled log pages.
func (l *Model) BeforeCommit(t *machine.ActiveTxn, done func()) {
	delete(l.updates, t)
	if l.unflushed[t] == 0 {
		done()
		return
	}
	l.committing[t] = done
	l.forceFor(t)
}

// OnAbort implements machine.Model: undo with a log is expensive — the
// transaction's log records are forced (undo reads them from stable
// storage), the log pages holding its before-images are read back, each
// updated page is rewritten in place, and an abort record is logged.
func (l *Model) OnAbort(t *machine.ActiveTxn, done func()) {
	homes := l.updates[t]
	delete(l.updates, t)
	if o := l.M.Obs(); o.Tracing() {
		o.Tracer().Instant("log", fmt.Sprintf("undo txn %d (%d pages)", t.ID(), len(homes)),
			l.M.Eng().Now())
	}
	undo := func() {
		if len(homes) == 0 {
			done()
			return
		}
		// Log pages to read back: one per update under physical logging,
		// packed fragments under logical logging.
		nLogPages := len(homes)
		if l.cfg.Mode == Logical {
			perPage := logPageBytes / l.cfg.FragmentBytes
			nLogPages = (len(homes) + perPage - 1) / perPage
		}
		l.undoReads += int64(nLogPages)
		remaining := nLogPages
		afterReads := func() {
			// Write the before-images over the updated pages, then log the
			// abort record.
			l.undoWrites += int64(len(homes))
			l.M.SubmitPhys(homes, true, func() {
				l.M.NoteTxnWrite(t)
				lp := l.lps[t.ID()%len(l.lps)]
				pos := lp.nextPage
				lp.nextPage = (lp.nextPage + 1) % lp.capacity
				lp.writes++
				lp.disk.Submit(&disk.Request{Pages: []int{pos}, Write: true, Done: done})
			})
		}
		for i := 0; i < nLogPages; i++ {
			lp := l.lps[i%len(l.lps)]
			// Undo reads seek back into the written log region.
			pos := lp.nextPage - 1 - i/len(l.lps)
			for pos < 0 {
				pos += lp.capacity
			}
			lp.disk.Submit(&disk.Request{Pages: []int{pos}, Done: func() {
				remaining--
				if remaining == 0 {
					afterReads()
				}
			}})
		}
	}
	// The write-ahead rule: records must be stable before undo proceeds.
	if l.unflushed[t] == 0 {
		undo()
		return
	}
	l.committing[t] = undo
	l.forceFor(t)
}

// forceFor seals any partial log page holding fragments of t.
func (l *Model) forceFor(t *machine.ActiveTxn) {
	for _, lp := range l.lps {
		if lp.current == nil {
			continue
		}
		for _, f := range lp.current.frags {
			if t == nil || f.t == t {
				l.forcedSeals++
				l.seal(lp)
				break
			}
		}
	}
}

// OnCachePressure implements machine.Model: the back-end controller needs
// frames, so expedite the log pages blocking this transaction's updates.
func (l *Model) OnCachePressure(t *machine.ActiveTxn) {
	if l.cfg.Mode == Physical {
		return // physical log writes are already queued
	}
	l.forceFor(t)
}

// Stats implements machine.Model.
func (l *Model) Stats() map[string]float64 {
	s := map[string]float64{
		"log.frags":       float64(l.fragsSent),
		"log.forcedSeals": float64(l.forcedSeals),
		"log.fullSeals":   float64(l.fullSeals),
		"log.undoReads":   float64(l.undoReads),
		"log.undoWrites":  float64(l.undoWrites),
		"log.checkpoints": float64(l.checkpoints),
	}
	var util float64
	for _, lp := range l.lps {
		u := lp.disk.Utilization()
		s[fmt.Sprintf("log.disk%d.util", lp.idx)] = u
		s[fmt.Sprintf("log.disk%d.writes", lp.idx)] = float64(lp.writes)
		util += u
	}
	s["log.diskUtil"] = util / float64(len(l.lps))
	if l.net != nil {
		s["log.netUtil"] = l.net.Utilization()
	}
	if l.route != nil {
		s["log.routeUtil"] = l.route.Utilization()
	}
	return s
}
