package machine

import (
	"fmt"

	"repro/internal/disk"
)

// Placement maps physical page numbers onto the data disks. Physical pages
// are laid out cylinder-major and cylinders are striped round-robin across
// the disks, so a sequential scan alternates disks one cylinder at a time
// while staying physically clustered on each.
//
// Physical pages [0, DBPages) hold the database proper; recovery models may
// reserve extra pages above DBPages (scratch areas, differential files,
// shadow copies) via the SpaceRequirer interface.
type Placement struct {
	nDisks      int
	pagesPerCyl int
	dbPages     int
	physPages   int // dbPages + model extras, rounded up to whole cylinders
}

func newPlacement(nDisks, pagesPerCyl, dbPages, extraPhys int) Placement {
	phys := dbPages + extraPhys
	// Round up so every disk has the same cylinder count.
	cylsTotal := (phys + pagesPerCyl - 1) / pagesPerCyl
	if rem := cylsTotal % nDisks; rem != 0 {
		cylsTotal += nDisks - rem
	}
	return Placement{
		nDisks:      nDisks,
		pagesPerCyl: pagesPerCyl,
		dbPages:     dbPages,
		physPages:   cylsTotal * pagesPerCyl,
	}
}

// NDisks reports the number of data disks.
func (p Placement) NDisks() int { return p.nDisks }

// PagesPerCyl reports pages per cylinder.
func (p Placement) PagesPerCyl() int { return p.pagesPerCyl }

// DBPages reports the size of the database region.
func (p Placement) DBPages() int { return p.dbPages }

// PhysPages reports the total physical page space across all disks.
func (p Placement) PhysPages() int { return p.physPages }

// CylindersPerDisk reports each disk's cylinder count.
func (p Placement) CylindersPerDisk() int {
	return p.physPages / p.pagesPerCyl / p.nDisks
}

// Locate maps a physical page to (disk index, local page number on disk).
func (p Placement) Locate(phys int) (diskIdx, local int) {
	if phys < 0 || phys >= p.physPages {
		panic(fmt.Sprintf("machine: physical page %d out of range [0,%d)", phys, p.physPages))
	}
	cyl := phys / p.pagesPerCyl
	diskIdx = cyl % p.nDisks
	localCyl := cyl / p.nDisks
	return diskIdx, localCyl*p.pagesPerCyl + phys%p.pagesPerCyl
}

// DiskOf reports only the disk index of a physical page.
func (p Placement) DiskOf(phys int) int {
	d, _ := p.Locate(phys)
	return d
}

// ExtraRegionStart reports the first physical page above the database
// region, aligned to a cylinder boundary.
func (p Placement) ExtraRegionStart() int {
	cyl := (p.dbPages + p.pagesPerCyl - 1) / p.pagesPerCyl
	return cyl * p.pagesPerCyl
}

// geometry builds the per-disk geometry for this placement.
func (p Placement) geometry() disk.Geometry {
	return disk.Geometry{
		PagesPerTrack: PagesPerTrack,
		TracksPerCyl:  TracksPerCyl,
		Cylinders:     p.CylindersPerDisk(),
	}
}

// RingAllocator hands out physical pages from a per-disk ring over a region
// of whole cylinders, as used by the overwriting architectures' scratch
// space. Allocations for a given disk always land on that disk.
type RingAllocator struct {
	p       Placement
	start   int // first physical page of the region (cylinder aligned)
	cyls    int // cylinders in the region per disk
	cursors []int
}

// NewRingAllocator creates a ring over cylsPerDisk cylinders per disk
// starting at physical page start (must be cylinder aligned).
func NewRingAllocator(p Placement, start, cylsPerDisk int) *RingAllocator {
	if start%p.pagesPerCyl != 0 {
		panic("machine: ring region not cylinder aligned")
	}
	return &RingAllocator{p: p, start: start, cyls: cylsPerDisk, cursors: make([]int, p.nDisks)}
}

// Next returns the next scratch page on diskIdx.
func (r *RingAllocator) Next(diskIdx int) int {
	ppc := r.p.pagesPerCyl
	n := r.cursors[diskIdx]
	r.cursors[diskIdx] = (n + 1) % (r.cyls * ppc)
	cylInRegion := n / ppc
	// Region cylinders on diskIdx: start cylinder of region + offset so the
	// striping lands on diskIdx.
	startCyl := r.start / ppc
	// Find the first region cylinder assigned to diskIdx.
	first := startCyl
	for first%r.p.nDisks != diskIdx {
		first++
	}
	cyl := first + cylInRegion*r.p.nDisks
	return cyl*ppc + n%ppc
}

// Capacity reports pages available per disk in the ring.
func (r *RingAllocator) Capacity() int { return r.cyls * r.p.pagesPerCyl }
