package shadow

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ptBuffer is the LRU page-table buffer shared by the page-table
// processors.
type ptBuffer struct {
	cap     int
	dirty   map[int]bool
	order   []int // LRU order: front is the victim
	hits    int64
	misses  int64
	evicted int64
}

func newPTBuffer(capacity int) *ptBuffer {
	return &ptBuffer{cap: capacity, dirty: make(map[int]bool)}
}

func (b *ptBuffer) contains(ptp int) bool {
	_, ok := b.dirty[ptp]
	return ok
}

// touch marks ptp most-recently used.
func (b *ptBuffer) touch(ptp int) {
	for i, v := range b.order {
		if v == ptp {
			b.order = append(append(b.order[:i:i], b.order[i+1:]...), ptp)
			return
		}
	}
}

// insert adds ptp, returning an evicted page and whether it was dirty
// (evicted == -1 when nothing was evicted).
func (b *ptBuffer) insert(ptp int) (evicted int, wasDirty bool) {
	evicted = -1
	if len(b.order) >= b.cap {
		evicted = b.order[0]
		b.order = b.order[1:]
		wasDirty = b.dirty[evicted]
		delete(b.dirty, evicted)
		b.evicted++
	}
	b.order = append(b.order, ptp)
	b.dirty[ptp] = false
	return evicted, wasDirty
}

func (b *ptBuffer) markDirty(ptp int) {
	if _, ok := b.dirty[ptp]; ok {
		b.dirty[ptp] = true
	}
}

func (b *ptBuffer) markClean(ptp int) {
	if _, ok := b.dirty[ptp]; ok {
		b.dirty[ptp] = false
	}
}

// ptProcessor is one page-table processor with its page-table disk.
type ptProcessor struct {
	idx  int
	cpu  *sim.Resource
	disk disk.Device
}

// PageTableModel is the "thru page-table" shadow architecture.
type PageTableModel struct {
	machine.Base
	cfg Config

	procs   []*ptProcessor
	buf     *ptBuffer
	pending map[int][]func() // in-flight page-table reads

	perm     []int // scrambled placement of the database region
	shadowTo *sim.RNG

	// Per-transaction lookup chains: the back-end controller resolves a
	// transaction's page addresses one at a time ("the page-table processor
	// fetches the disk address of the next data page"), so lookups are
	// pipelined with data processing but serialized within a transaction.
	chains    map[*machine.ActiveTxn][]lookupItem
	chainBusy map[*machine.ActiveTxn]bool

	dirtied map[*machine.ActiveTxn]map[int]bool
	rereads int64
	ptReads int64
	ptWrite int64
}

type lookupItem struct {
	ptp     int
	proceed func()
}

// NewPageTable returns a thru-page-table shadow model.
func NewPageTable(cfg Config) *PageTableModel {
	cfg.Variant = ThruPageTable
	return &PageTableModel{
		cfg:       cfg.withDefaults(),
		pending:   make(map[int][]func()),
		dirtied:   make(map[*machine.ActiveTxn]map[int]bool),
		chains:    make(map[*machine.ActiveTxn][]lookupItem),
		chainBusy: make(map[*machine.ActiveTxn]bool),
	}
}

// Name implements machine.Model.
func (s *PageTableModel) Name() string {
	placement := "clustered"
	if s.cfg.Scrambled {
		placement = "scrambled"
	}
	return fmt.Sprintf("shadow(pt,%dproc,buf%d,%s)",
		s.cfg.PageTableProcessors, s.cfg.BufferPages, placement)
}

// Attach implements machine.Model.
func (s *PageTableModel) Attach(m *machine.Machine) {
	s.Base.Attach(m)
	s.buf = newPTBuffer(s.cfg.BufferPages)
	for i := 0; i < s.cfg.PageTableProcessors; i++ {
		s.procs = append(s.procs, &ptProcessor{
			idx:  i,
			cpu:  sim.NewResource(m.Eng(), fmt.Sprintf("ptproc%d", i), 1),
			disk: m.NewAuxDisk(fmt.Sprintf("ptdisk%d", i), ptDiskCylinders),
		})
		m.ObserveResource(s.procs[i].cpu)
	}
	reg := m.Obs().Reg
	reg.Func("pt.hits", func() float64 { return float64(s.buf.hits) })
	reg.Func("pt.misses", func() float64 { return float64(s.buf.misses) })
	reg.Func("pt.evictions", func() float64 { return float64(s.buf.evicted) })
	reg.Func("pt.rereads", func() float64 { return float64(s.rereads) })
	if s.cfg.Scrambled {
		rng := m.RNG().Fork()
		s.perm = rng.Perm(m.Cfg().Workload.DBPages)
		s.shadowTo = rng.Fork()
	}
}

func (s *PageTableModel) ptPageOf(p workload.PageID) int {
	return int(p) / entriesPerPTPage
}

func (s *PageTableModel) procOf(ptp int) *ptProcessor {
	return s.procs[ptp%len(s.procs)]
}

// ptDiskPage places page-table page ptp on its processor's disk, one
// page-table page per cylinder so page-table seeks behave like the paper's
// dedicated page-table disks.
func (s *PageTableModel) ptDiskPage(proc *ptProcessor, ptp int) int {
	geom := proc.disk.Geom()
	cyl := (ptp / len(s.procs)) % geom.Cylinders
	return cyl * geom.PagesPerCyl()
}

// Plan implements machine.Model. Under clustered placement the physical
// locations match the bare machine; under scrambled placement every logical
// page lives at a random physical page and updates move to fresh random
// shadow locations.
func (s *PageTableModel) Plan(t *machine.ActiveTxn) []machine.PlannedRead {
	plan := s.M.StandardPlan(t)
	if s.cfg.Scrambled {
		for i := range plan {
			phys := s.perm[int(plan[i].Page)]
			plan[i].PhysPages = []int{phys}
			if plan[i].Update {
				plan[i].WriteTo = s.shadowTo.Intn(s.M.Cfg().Workload.DBPages)
			}
		}
	}
	return plan
}

// BeforeRead implements machine.Model: resolve the page's disk address
// through the page table before the data read can start. Lookups are
// serialized per transaction and pipelined with data-page processing.
func (s *PageTableModel) BeforeRead(t *machine.ActiveTxn, pr *machine.PlannedRead, proceed func()) {
	s.chains[t] = append(s.chains[t], lookupItem{ptp: s.ptPageOf(pr.Page), proceed: proceed})
	if !s.chainBusy[t] {
		s.chainBusy[t] = true
		s.runChain(t)
	}
}

func (s *PageTableModel) runChain(t *machine.ActiveTxn) {
	queue := s.chains[t]
	if len(queue) == 0 {
		delete(s.chains, t)
		delete(s.chainBusy, t)
		return
	}
	item := queue[0]
	s.chains[t] = queue[1:]
	s.lookup(item.ptp, func() {
		item.proceed()
		s.runChain(t)
	})
}

// lookup resolves one page-table entry, then calls proceed.
func (s *PageTableModel) lookup(ptp int, proceed func()) {
	proc := s.procOf(ptp)
	proc.cpu.Request(ptLookupCPU, func() {
		if s.buf.contains(ptp) {
			s.buf.hits++
			s.buf.touch(ptp)
			proceed()
			return
		}
		if waiters, inFlight := s.pending[ptp]; inFlight {
			s.buf.hits++ // piggybacks on the in-flight read
			s.pending[ptp] = append(waiters, proceed)
			return
		}
		s.buf.misses++
		s.pending[ptp] = nil
		s.readPTPage(proc, ptp, func() {
			s.installPTPage(proc, ptp)
			waiters := s.pending[ptp]
			delete(s.pending, ptp)
			proceed()
			for _, w := range waiters {
				w()
			}
		})
	})
}

func (s *PageTableModel) readPTPage(proc *ptProcessor, ptp int, done func()) {
	s.ptReads++
	proc.disk.Submit(&disk.Request{
		Pages: []int{s.ptDiskPage(proc, ptp)},
		Done:  done,
	})
}

func (s *PageTableModel) writePTPage(proc *ptProcessor, ptp int, done func()) {
	s.ptWrite++
	proc.disk.Submit(&disk.Request{
		Pages: []int{s.ptDiskPage(proc, ptp)},
		Write: true,
		Done:  done,
	})
}

// installPTPage inserts ptp into the buffer, writing back a dirty victim.
func (s *PageTableModel) installPTPage(proc *ptProcessor, ptp int) {
	evicted, wasDirty := s.buf.insert(ptp)
	if evicted >= 0 && wasDirty {
		s.writePTPage(s.procOf(evicted), evicted, nil)
	}
}

// UpdateReady implements machine.Model: shadow updates go to fresh blocks,
// so the data page may be written immediately; the page-table entry becomes
// dirty and is persisted at commit.
func (s *PageTableModel) UpdateReady(t *machine.ActiveTxn, pr *machine.PlannedRead, release func()) {
	ptp := s.ptPageOf(pr.Page)
	s.buf.markDirty(ptp)
	set := s.dirtied[t]
	if set == nil {
		set = make(map[int]bool)
		s.dirtied[t] = set
	}
	set[ptp] = true
	release()
}

// BeforeCommit implements machine.Model: every page-table page the
// transaction dirtied must reach the page-table disk; pages evicted from
// the buffer are reread first (the paper's commit-time rereads).
func (s *PageTableModel) BeforeCommit(t *machine.ActiveTxn, done func()) {
	set := s.dirtied[t]
	delete(s.dirtied, t)
	if len(set) == 0 {
		done()
		return
	}
	remaining := len(set)
	o := s.M.Obs()
	flushStart := s.M.Eng().Now()
	finish := func() {
		remaining--
		if remaining == 0 {
			if o.Tracing() {
				o.Tracer().Span("pt", "commit-flush", flushStart, s.M.Eng().Now(),
					map[string]any{"ptPages": len(set), "txn": t.ID()})
			}
			done()
		}
	}
	// Deterministic issue order (map iteration order would randomize the
	// disk schedule and break run-to-run reproducibility).
	ptps := make([]int, 0, len(set))
	for ptp := range set {
		ptps = append(ptps, ptp)
	}
	sort.Ints(ptps)
	for _, ptp := range ptps {
		ptp := ptp
		proc := s.procOf(ptp)
		proc.cpu.Request(ptLookupCPU, func() {
			if s.buf.contains(ptp) {
				s.buf.markClean(ptp)
				s.writePTPage(proc, ptp, finish)
				return
			}
			// Evicted before commit: reread for updating, then write.
			s.rereads++
			if o.Tracing() {
				o.Tracer().Instant("pt", fmt.Sprintf("commit-reread pt%d", ptp), s.M.Eng().Now())
			}
			s.readPTPage(proc, ptp, func() {
				s.installPTPage(proc, ptp)
				s.writePTPage(proc, ptp, finish)
			})
		})
	}
}

// Stats implements machine.Model.
func (s *PageTableModel) Stats() map[string]float64 {
	out := map[string]float64{
		"pt.hits":    float64(s.buf.hits),
		"pt.misses":  float64(s.buf.misses),
		"pt.rereads": float64(s.rereads),
		"pt.reads":   float64(s.ptReads),
		"pt.writes":  float64(s.ptWrite),
	}
	var util float64
	for _, p := range s.procs {
		u := p.disk.Utilization()
		out[fmt.Sprintf("pt.disk%d.util", p.idx)] = u
		util += u
	}
	out["pt.diskUtil"] = util / float64(len(s.procs))
	if total := s.buf.hits + s.buf.misses; total > 0 {
		out["pt.hitRate"] = float64(s.buf.hits) / float64(total)
	}
	return out
}
