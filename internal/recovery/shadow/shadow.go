// Package shadow implements the paper's shadow-based recovery architectures
// (Section 3.2):
//
//   - ThruPageTable: the canonical shadow mechanism with indirection through
//     page tables kept on dedicated page-table disks behind one or more
//     page-table processors, with an LRU page-table buffer (Tables 4-6), in
//     both the clustered and scrambled placement regimes (Table 7).
//   - VersionSelection: physically adjacent current/shadow block pairs read
//     together, with version selection applied after the fact (Section
//     3.2.2.1); it doubles disk space.
//   - OverwriteNoUndo / OverwriteNoRedo: the overwriting architectures of
//     Section 3.2.2.2, using a scratch ring buffer on each data disk
//     (Tables 7-8).
package shadow

import (
	"repro/internal/sim"
)

// Variant selects one of the shadow architectures.
type Variant int

const (
	// ThruPageTable is canonical shadow paging with page-table indirection.
	ThruPageTable Variant = iota
	// VersionSelection reads both versions of every page and selects.
	VersionSelection
	// OverwriteNoUndo writes updates to scratch space, commits, then
	// overwrites the shadows (no undo needed at recovery).
	OverwriteNoUndo
	// OverwriteNoRedo saves shadows to scratch space before updating in
	// place (no redo needed at recovery).
	OverwriteNoRedo
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case ThruPageTable:
		return "thru-page-table"
	case VersionSelection:
		return "version-selection"
	case OverwriteNoUndo:
		return "overwrite-no-undo"
	case OverwriteNoRedo:
		return "overwrite-no-redo"
	}
	return "shadow(?)"
}

// The paper's calibration of the shadow architectures.
const (
	entriesPerPTPage   = 1000                  // >1000 for 4 KB pages in the paper
	ptLookupCPU        = 300 * sim.Microsecond // page-table processor time per lookup
	ptDiskCylinders    = 40                    // page-table disk size
	versionCPU         = 1 * sim.Millisecond   // version-selection time per read
	scratchCylsPerDisk = 20                    // overwriting: scratch ring cylinders per data disk
)

// Config parameterizes the shadow architectures. Zero fields take defaults.
type Config struct {
	Variant Variant

	// ThruPageTable parameters.
	PageTableProcessors int  // 1 or 2 in the paper
	BufferPages         int  // page-table buffer (10/25/50 in Table 6)
	Scrambled           bool // logically adjacent pages scattered
}

// DefaultConfig is the Table 4 baseline: one page-table processor with a
// ten-page buffer, clustered placement.
func DefaultConfig() Config {
	return Config{
		Variant:             ThruPageTable,
		PageTableProcessors: 1,
		BufferPages:         10,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.PageTableProcessors == 0 {
		c.PageTableProcessors = d.PageTableProcessors
	}
	if c.BufferPages == 0 {
		c.BufferPages = d.BufferPages
	}
	return c
}
