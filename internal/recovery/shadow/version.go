package shadow

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/workload"
)

// VersionModel is the version-selection architecture (Section 3.2.2.1):
// current and shadow copies live in physically adjacent blocks; a read
// fetches both and selects the current version by timestamp, avoiding
// page-table indirection at the cost of doubled disk space and transfer.
type VersionModel struct {
	machine.Base
	cfg Config
}

// NewVersion returns a version-selection shadow model.
func NewVersion(cfg Config) *VersionModel {
	cfg.Variant = VersionSelection
	return &VersionModel{cfg: cfg.withDefaults()}
}

// Name implements machine.Model.
func (v *VersionModel) Name() string { return "shadow(version-selection)" }

// ExtraPhysPages implements machine.SpaceRequirer: every database page needs
// a second block, doubling the database region.
func (v *VersionModel) ExtraPhysPages(cfg machine.Config) int {
	return cfg.Workload.DBPages
}

// DBPhys implements machine.PhysMapper: page p's version pair starts at 2p.
func (v *VersionModel) DBPhys(p workload.PageID) int { return 2 * int(p) }

// Plan implements machine.Model: each read fetches both blocks of the pair
// and pays the version-selection CPU; updates overwrite the older block (the
// same pair, so one write).
func (v *VersionModel) Plan(t *machine.ActiveTxn) []machine.PlannedRead {
	plan := make([]machine.PlannedRead, len(t.T.Reads))
	for i, p := range t.T.Reads {
		base := 2 * int(p)
		update := t.T.Writes[p]
		cpu := machine.CPUPerPage + versionCPU
		if update {
			cpu += machine.CPUPerUpdate
		}
		plan[i] = machine.PlannedRead{
			Page:      p,
			PhysPages: []int{base, base + 1},
			Update:    update,
			WriteTo:   base,
			CPU:       cpu,
		}
	}
	return plan
}

// Stats implements machine.Model.
func (v *VersionModel) Stats() map[string]float64 {
	return map[string]float64{
		"version.spaceMultiplier": 2,
	}
}

var _ fmt.Stringer = Variant(0)
