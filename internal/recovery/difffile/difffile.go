// Package difffile implements the paper's differential-file recovery
// architecture (Section 3.3): every relation R is a view R = (B ∪ A) − D of
// a read-only base file B, an additions file A, and a deletions file D.
// Updates never touch B — new tuples are appended to A and deleted tuples to
// D — so recovery only needs the short-lived A/D tails. The costs are extra
// reads of A and D pages and the set-difference CPU work turning a simple
// scan into a union/difference computation.
//
// Both query-processing strategies of Table 9 are modeled: the basic
// strategy set-differences every B and A page against the transaction's D
// tuples, while the optimal strategy does so only for pages that yield at
// least one qualifying tuple.
package difffile

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Strategy selects the query-processing strategy.
type Strategy int

const (
	// Optimal set-differences only pages with at least one result tuple
	// (the paper's standard strategy; the zero value).
	Optimal Strategy = iota
	// Basic set-differences every B and A page.
	Basic
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == Basic {
		return "basic"
	}
	return "optimal"
}

// The paper's calibration of the differential-file architecture. hitFrac is
// calibrated so the VAX-class query processors saturate where the paper's do.
const (
	hitFrac    = 0.35                 // pages yielding >=1 result tuple under Optimal
	TuplesPage = 50                   // tuples per 4 KB page
	CompareCPU = 21 * sim.Microsecond // one tuple-pair comparison: ~13 VAX-11/750 instructions
)

// Config parameterizes the differential-file architecture. Zero fields take
// defaults.
type Config struct {
	Strategy   Strategy
	DiffFrac   float64 // |A|/|B| = |D|/|B| (paper: 0.10, 0.15, 0.20)
	OutputFrac float64 // fraction of an output page created per update (0.10..0.50)
}

// DefaultConfig matches the paper's standard setting: the optimal strategy,
// 10 % differential files and 10 % output pages.
func DefaultConfig() Config {
	return Config{
		Strategy:   Optimal,
		DiffFrac:   0.10,
		OutputFrac: 0.10,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.DiffFrac == 0 {
		c.DiffFrac = d.DiffFrac
	}
	if c.OutputFrac == 0 {
		c.OutputFrac = d.OutputFrac
	}
	return c
}

// Model is the differential-file recovery model.
type Model struct {
	machine.Base
	cfg Config

	rng        *sim.RNG
	regionA    int // first physical page of the A region
	regionD    int // first physical page of the D region
	regionSize int // pages per region
	appendPos  int // append cursor into the A region

	aReads    int64
	dReads    int64
	appends   int64
	setDiffed int64
	skipped   int64
}

// New returns a differential-file model with cfg (zero fields defaulted).
func New(cfg Config) *Model {
	return &Model{cfg: cfg.withDefaults()}
}

// Name implements machine.Model.
func (d *Model) Name() string {
	return fmt.Sprintf("difffile(%s,%.0f%%,out%.0f%%)",
		d.cfg.Strategy, d.cfg.DiffFrac*100, d.cfg.OutputFrac*100)
}

// ExtraPhysPages implements machine.SpaceRequirer: space for the A and D
// files plus slack for appends.
func (d *Model) ExtraPhysPages(cfg machine.Config) int {
	region := int(float64(cfg.Workload.DBPages)*d.cfg.DiffFrac) + cfg.Workload.DBPages/20
	return 2 * region
}

// Attach implements machine.Model.
func (d *Model) Attach(m *machine.Machine) {
	d.Base.Attach(m)
	reg := m.Obs().Reg
	reg.Func("diff.aReads", func() float64 { return float64(d.aReads) })
	reg.Func("diff.dReads", func() float64 { return float64(d.dReads) })
	reg.Func("diff.appends", func() float64 { return float64(d.appends) })
	reg.Func("diff.setDiffed", func() float64 { return float64(d.setDiffed) })
	d.rng = m.RNG().Fork()
	start := m.Place().ExtraRegionStart()
	d.regionSize = (m.Place().PhysPages() - start) / 2
	d.regionA = start
	d.regionD = start + d.regionSize
}

// Plan implements machine.Model: read the transaction's D pages, then every
// B page, then its A pages; no page is updated in place.
func (d *Model) Plan(t *machine.ActiveTxn) []machine.PlannedRead {
	n := len(t.T.Reads)
	nDiff := int(float64(n)*d.cfg.DiffFrac + 0.999999)
	if nDiff < 1 {
		nDiff = 1
	}
	// CPU cost of one set-difference: page tuples x transaction's D tuples.
	dTuples := nDiff * TuplesPage
	setDiff := sim.Time(TuplesPage*dTuples) * CompareCPU
	// Larger differential files contain more matching tuples, so more pages
	// yield at least one result tuple and require the set-difference.
	hit := hitFrac * math.Sqrt(d.cfg.DiffFrac/0.10)
	if hit > 1 {
		hit = 1
	}

	plan := make([]machine.PlannedRead, 0, n+2*nDiff)
	for i := 0; i < nDiff; i++ {
		phys := d.regionD + d.rng.Intn(d.regionSize)
		d.dReads++
		plan = append(plan, machine.PlannedRead{
			Page:      -1,
			PhysPages: []int{phys},
			CPU:       machine.CPUPerPage,
		})
	}
	scanCPU := func(update bool) sim.Time {
		cpu := machine.CPUPerPage
		if update {
			cpu += machine.CPUPerUpdate
		}
		switch d.cfg.Strategy {
		case Basic:
			d.setDiffed++
			cpu += setDiff
		case Optimal:
			if d.rng.Bool(hit) {
				d.setDiffed++
				cpu += setDiff
			} else {
				d.skipped++
			}
		}
		return cpu
	}
	for _, p := range t.T.Reads {
		plan = append(plan, machine.PlannedRead{
			Page:      p,
			PhysPages: []int{d.M.DBPhys(p)},
			CPU:       scanCPU(t.T.Writes[p]),
		})
	}
	for i := 0; i < nDiff; i++ {
		phys := d.regionA + d.rng.Intn(d.regionSize)
		d.aReads++
		plan = append(plan, machine.PlannedRead{
			Page:      -1,
			PhysPages: []int{phys},
			CPU:       scanCPU(false),
		})
	}
	return plan
}

// BeforeCommit implements machine.Model: the transaction's output pages —
// OutputFrac of a page per updated page, aggregated — are appended to the A
// file (with deletion entries folded into the same appended pages).
func (d *Model) BeforeCommit(t *machine.ActiveTxn, done func()) {
	u := t.T.NumWrites()
	if u == 0 {
		done()
		return
	}
	nOut := int(float64(u)*d.cfg.OutputFrac + 0.999999)
	pages := make([]int, nOut)
	for i := range pages {
		pages[i] = d.regionA + d.appendPos
		d.appendPos = (d.appendPos + 1) % d.regionSize
	}
	d.appends += int64(nOut)
	o := d.M.Obs()
	appendStart := d.M.Eng().Now()
	d.M.SubmitPhys(pages, true, func() {
		if o.Tracing() {
			o.Tracer().Span("difffile", "append", appendStart, d.M.Eng().Now(),
				map[string]any{"pages": nOut, "txn": t.ID()})
		}
		// Output pages are partial pages appended to A; they are extra I/O
		// work, not processed data pages, so they do not enter the
		// pages-processed denominator.
		d.M.NoteTxnWrite(t)
		done()
	})
}

// Stats implements machine.Model.
func (d *Model) Stats() map[string]float64 {
	return map[string]float64{
		"diff.aReads":    float64(d.aReads),
		"diff.dReads":    float64(d.dReads),
		"diff.appends":   float64(d.appends),
		"diff.setDiffed": float64(d.setDiffed),
		"diff.skipped":   float64(d.skipped),
	}
}

var _ machine.SpaceRequirer = (*Model)(nil)
