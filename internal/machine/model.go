package machine

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// PlannedRead is one step of a transaction's execution plan: fetch the
// physical page(s) backing a logical page, process them on a query
// processor, and — if the page is updated — write the new version back.
type PlannedRead struct {
	Page      workload.PageID // logical page
	PhysPages []int           // physical pages fetched (usually one)
	Update    bool            // produces an updated page
	WriteTo   int             // physical destination of the updated page
	CPU       sim.Time        // query-processor service time
}

// Model is a recovery architecture plugged into the machine. The bare
// machine is Base. Models are driven by the machine at well-defined points
// in the transaction pipeline; each hook receives a continuation that the
// model must eventually invoke exactly once.
type Model interface {
	// Name identifies the model in results.
	Name() string
	// Attach wires the model to the machine before the run starts; models
	// create their auxiliary devices (log disks, page-table disks) here.
	Attach(m *Machine)
	// Plan builds the transaction's execution plan.
	Plan(t *ActiveTxn) []PlannedRead
	// BeforeRead runs before the data-disk read of pr is issued (page-table
	// indirection goes here). Call proceed to start the read.
	BeforeRead(t *ActiveTxn, pr *PlannedRead, proceed func())
	// UpdateReady runs when a query processor finishes building an updated
	// page. Call release when the page may be written to disk (the WAL rule
	// gates it here). Until release, the page is counted as blocked in the
	// cache.
	UpdateReady(t *ActiveTxn, pr *PlannedRead, release func())
	// BeforeCommit runs once all planned reads are processed. Recovery data
	// must reach stable storage here (log force, page-table writes). Call
	// done when finished.
	BeforeCommit(t *ActiveTxn, done func())
	// AfterCommit runs once the commit point is reached and all planned
	// writes are durable; post-commit work (overwriting shadows from the
	// scratch area) goes here. Call done when finished.
	AfterCommit(t *ActiveTxn, done func())
	// OnAbort runs instead of BeforeCommit when a transaction aborts: the
	// model performs its undo actions (reading recovery data, restoring
	// pages) and calls done when the database state is clean again.
	OnAbort(t *ActiveTxn, done func())
	// OnCachePressure is called when the controller cannot allocate frames
	// because updated pages are blocked; logging models should expedite
	// their log writes (the paper's forced log-page flush).
	OnCachePressure(t *ActiveTxn)
	// Stats reports model-specific statistics for the run result.
	Stats() map[string]float64
}

// SpaceRequirer is implemented by models that need physical disk space
// beyond the database region (scratch rings, differential files, version
// pairs). ExtraPhysPages is consulted before the data disks are built.
type SpaceRequirer interface {
	ExtraPhysPages(cfg Config) int
}

// PhysMapper is implemented by models that relocate the database region
// itself (the version-selection architecture doubles every page). DBPhys
// maps a logical database page to the physical page holding its current
// version.
type PhysMapper interface {
	DBPhys(p workload.PageID) int
}

// Base is the bare machine: no recovery data is collected. It is also the
// embedding base for real models, supplying no-op hooks.
type Base struct {
	M *Machine
}

// Name implements Model.
func (b *Base) Name() string { return "bare" }

// Attach implements Model.
func (b *Base) Attach(m *Machine) { b.M = m }

// Plan implements Model with the standard one-phys-page-per-read plan.
func (b *Base) Plan(t *ActiveTxn) []PlannedRead { return b.M.StandardPlan(t) }

// BeforeRead implements Model; the bare machine reads immediately.
func (b *Base) BeforeRead(t *ActiveTxn, pr *PlannedRead, proceed func()) { proceed() }

// UpdateReady implements Model; without recovery the page is immediately
// flushable.
func (b *Base) UpdateReady(t *ActiveTxn, pr *PlannedRead, release func()) { release() }

// BeforeCommit implements Model.
func (b *Base) BeforeCommit(t *ActiveTxn, done func()) { done() }

// AfterCommit implements Model.
func (b *Base) AfterCommit(t *ActiveTxn, done func()) { done() }

// OnAbort implements Model; architectures that never modify current data in
// place (shadow paging, differential files, no-undo overwriting) abort for
// free.
func (b *Base) OnAbort(t *ActiveTxn, done func()) { done() }

// OnCachePressure implements Model.
func (b *Base) OnCachePressure(t *ActiveTxn) {}

// Stats implements Model.
func (b *Base) Stats() map[string]float64 { return nil }

// StandardPlan builds the bare-machine plan: each logical page is fetched
// from its identity physical location, costs CPUPerPage (+CPUPerUpdate when
// updated), and updated pages are written back in place.
func (m *Machine) StandardPlan(t *ActiveTxn) []PlannedRead {
	plan := make([]PlannedRead, len(t.T.Reads))
	for i, p := range t.T.Reads {
		phys := m.DBPhys(p)
		update := t.T.Writes[p]
		cpu := CPUPerPage
		if update {
			cpu += CPUPerUpdate
		}
		plan[i] = PlannedRead{
			Page:      p,
			PhysPages: []int{phys},
			Update:    update,
			WriteTo:   phys,
			CPU:       cpu,
		}
	}
	return plan
}
