package shadow

import (
	"fmt"

	"repro/internal/machine"
)

// OverwriteModel implements the overwriting architectures (Section 3.2.2.2).
// Both keep a scratch ring buffer of whole cylinders on every data disk and
// avoid page-table indirection entirely, preserving physical sequentiality.
//
// No-undo: updated pages are first written to the scratch area; once all are
// durable the transaction commits (a commit-list page is forced), and only
// then are the shadows overwritten in place — locks release after the
// overwrite. Recovery redoes the overwrites of committed transactions.
//
// No-redo: the original of each page is saved to the scratch area before the
// updated page overwrites it in place; commit requires all in-place writes
// durable. Recovery restores scratch copies of uncommitted transactions.
type OverwriteModel struct {
	machine.Base
	cfg  Config
	redo bool // true => no-undo variant (redo applies scratch copies)

	scratch *machine.RingAllocator
	metaPg  int // commit/abort-list page

	scratchWrites int64
	copyReads     int64
	copyWrites    int64
	commitRecs    int64

	// per-transaction scratch/home pairs (no-undo)
	pairs map[*machine.ActiveTxn][][2]int
}

// NewOverwrite returns an overwriting model; noUndo selects the no-undo
// variant (the one evaluated in Tables 7 and 8), otherwise no-redo.
func NewOverwrite(cfg Config, noUndo bool) *OverwriteModel {
	if noUndo {
		cfg.Variant = OverwriteNoUndo
	} else {
		cfg.Variant = OverwriteNoRedo
	}
	return &OverwriteModel{
		cfg:   cfg.withDefaults(),
		redo:  noUndo,
		pairs: make(map[*machine.ActiveTxn][][2]int),
	}
}

// Name implements machine.Model.
func (o *OverwriteModel) Name() string {
	if o.redo {
		return "shadow(overwrite-no-undo)"
	}
	return "shadow(overwrite-no-redo)"
}

// ExtraPhysPages implements machine.SpaceRequirer: the scratch ring plus one
// cylinder for the commit-list metadata.
func (o *OverwriteModel) ExtraPhysPages(cfg machine.Config) int {
	ppc := machine.PagesPerTrack * machine.TracksPerCyl
	return (scratchCylsPerDisk*cfg.DataDisks + cfg.DataDisks) * ppc
}

// Attach implements machine.Model.
func (o *OverwriteModel) Attach(m *machine.Machine) {
	o.Base.Attach(m)
	place := m.Place()
	start := place.ExtraRegionStart()
	o.metaPg = start // first extra cylinder holds the commit list
	scratchStart := start + place.PagesPerCyl()*place.NDisks()
	o.scratch = machine.NewRingAllocator(place, scratchStart, scratchCylsPerDisk)
}

// Plan implements machine.Model. Under no-undo the planned write of each
// updated page goes to the scratch area of its home disk; under no-redo it
// stays in place.
func (o *OverwriteModel) Plan(t *machine.ActiveTxn) []machine.PlannedRead {
	plan := o.M.StandardPlan(t)
	if !o.redo {
		return plan
	}
	place := o.M.Place()
	for i := range plan {
		if !plan[i].Update {
			continue
		}
		home := plan[i].PhysPages[0]
		scratch := o.scratch.Next(place.DiskOf(home))
		o.scratchWrites++
		plan[i].WriteTo = scratch
		o.pairs[t] = append(o.pairs[t], [2]int{scratch, home})
	}
	return plan
}

// UpdateReady implements machine.Model. The no-redo variant saves the shadow
// (the page's original, already in the cache) to the scratch area before the
// in-place write is allowed.
func (o *OverwriteModel) UpdateReady(t *machine.ActiveTxn, pr *machine.PlannedRead, release func()) {
	if o.redo {
		release() // scratch write is the planned write itself
		return
	}
	place := o.M.Place()
	scratch := o.scratch.Next(place.DiskOf(pr.PhysPages[0]))
	o.scratchWrites++
	o.pairs[t] = append(o.pairs[t], [2]int{scratch, pr.PhysPages[0]})
	o.M.SubmitPhys([]int{scratch}, true, release)
}

// OnAbort implements machine.Model. No-undo aborts for free: the scratch
// copies are simply abandoned and the shadows are still current. No-redo
// must undo: the saved shadows are read back from the scratch area and
// rewritten over the in-place updates.
func (o *OverwriteModel) OnAbort(t *machine.ActiveTxn, done func()) {
	pairs := o.pairs[t]
	delete(o.pairs, t)
	if o.redo || len(pairs) == 0 {
		done()
		return
	}
	scratchPages := make([]int, len(pairs))
	homePages := make([]int, len(pairs))
	for i, pr := range pairs {
		scratchPages[i] = pr[0]
		homePages[i] = pr[1]
	}
	o.copyReads += int64(len(scratchPages))
	o.M.SubmitPhys(scratchPages, false, func() {
		o.copyWrites += int64(len(homePages))
		o.M.SubmitPhys(homePages, true, func() {
			o.M.NoteTxnWrite(t)
			done()
		})
	})
}

// AfterCommit implements machine.Model. For no-undo: force the commit-list
// page, read the updated pages back from scratch, and overwrite the shadows
// in place; the transaction's locks release only after that. For no-redo:
// just force the commit-list page.
func (o *OverwriteModel) AfterCommit(t *machine.ActiveTxn, done func()) {
	o.commitRecs++
	o.M.SubmitPhys([]int{o.metaPg}, true, func() {
		if !o.redo {
			done()
			return
		}
		pairs := o.pairs[t]
		delete(o.pairs, t)
		if len(pairs) == 0 {
			done()
			return
		}
		if o.M.Cfg().ParallelDisks {
			// Parallel-access disks read the whole scratch area and
			// overwrite the shadows in one or very few accesses.
			scratchPages := make([]int, len(pairs))
			homePages := make([]int, len(pairs))
			for i, pr := range pairs {
				scratchPages[i] = pr[0]
				homePages[i] = pr[1]
			}
			o.copyReads += int64(len(scratchPages))
			o.M.SubmitPhys(scratchPages, false, func() {
				o.copyWrites += int64(len(homePages))
				o.M.SubmitPhys(homePages, true, func() {
					o.M.NoteTxnWrite(t)
					done()
				})
			})
			return
		}
		// Conventional disks overwrite one shadow at a time: the arm
		// ping-pongs between the scratch area and the data area — the
		// paper's reason overwriting performs poorly on conventional disks.
		var step func(i int)
		step = func(i int) {
			if i == len(pairs) {
				o.M.NoteTxnWrite(t)
				done()
				return
			}
			o.copyReads++
			o.M.SubmitPhys([]int{pairs[i][0]}, false, func() {
				o.copyWrites++
				o.M.SubmitPhys([]int{pairs[i][1]}, true, func() {
					step(i + 1)
				})
			})
		}
		step(0)
	})
}

// Stats implements machine.Model.
func (o *OverwriteModel) Stats() map[string]float64 {
	return map[string]float64{
		"overwrite.scratchWrites": float64(o.scratchWrites),
		"overwrite.copyReads":     float64(o.copyReads),
		"overwrite.copyWrites":    float64(o.copyWrites),
		"overwrite.commitRecords": float64(o.commitRecs),
	}
}

var _ machine.SpaceRequirer = (*OverwriteModel)(nil)
var _ fmt.Stringer = Variant(0)
