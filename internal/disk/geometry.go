// Package disk models the mass-storage devices of the database machine:
// IBM-3350-class conventional moving-head disks and SURE/DBC-style
// parallel-access disks that can read or write every page of a cylinder in
// one access.
//
// Pages on a device are addressed by a dense local page number; the geometry
// maps page numbers to (cylinder, track, sector). Service times are built
// from seek, rotational latency and transfer components, so relative device
// behaviour (random vs sequential, conventional vs parallel-access) emerges
// from the same few parameters the paper's simulator used.
package disk

import "fmt"

// Geometry describes the physical layout of a disk.
type Geometry struct {
	PagesPerTrack int // 4 KB pages per track
	TracksPerCyl  int // tracks (heads) per cylinder
	Cylinders     int
}

// PagesPerCyl reports the number of pages in one cylinder.
func (g Geometry) PagesPerCyl() int { return g.PagesPerTrack * g.TracksPerCyl }

// Capacity reports the total number of pages on the device.
func (g Geometry) Capacity() int { return g.PagesPerCyl() * g.Cylinders }

// CylinderOf maps a local page number to its cylinder.
func (g Geometry) CylinderOf(page int) int {
	if page < 0 || page >= g.Capacity() {
		panic(fmt.Sprintf("disk: page %d out of range (capacity %d)", page, g.Capacity()))
	}
	return page / g.PagesPerCyl()
}

// TrackOf maps a local page number to its track within the cylinder.
func (g Geometry) TrackOf(page int) int {
	return (page % g.PagesPerCyl()) / g.PagesPerTrack
}

// Validate reports an error if the geometry is degenerate.
func (g Geometry) Validate() error {
	if g.PagesPerTrack <= 0 || g.TracksPerCyl <= 0 || g.Cylinders <= 0 {
		return fmt.Errorf("disk: invalid geometry %+v", g)
	}
	return nil
}
