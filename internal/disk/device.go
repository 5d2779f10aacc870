package disk

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Params are the timing parameters of a disk model.
type Params struct {
	MinSeek      sim.Time // arm settle / track-to-track move
	SeekPerCyl   sim.Time // incremental seek cost per cylinder of distance
	Rotation     sim.Time // one full revolution
	PageTransfer sim.Time // transfer time for one 4 KB page
}

// Default3350Params approximates an IBM 3350: ~10 ms minimum seek, ~50 ms
// full-stroke seek, 16.7 ms revolution (3600 rpm), ~3.4 ms to move a 4 KB
// page at ~1.2 MB/s.
func Default3350Params() Params {
	return Params{
		MinSeek:      sim.Ms(10),
		SeekPerCyl:   sim.Ms(0.165),
		Rotation:     sim.Ms(16.7),
		PageTransfer: sim.Ms(3.4),
	}
}

// SeekTime reports the time to move the arm dist cylinders (0 => no seek).
func (p Params) SeekTime(dist int) sim.Time {
	if dist == 0 {
		return 0
	}
	if dist < 0 {
		dist = -dist
	}
	return p.MinSeek + sim.Time(dist)*p.SeekPerCyl
}

// Request is one I/O submitted to a device. Pages are local page numbers on
// that device. Done (may be nil) runs when the access completes.
type Request struct {
	Pages []int
	Write bool
	Done  func()
}

// Device is the interface shared by the conventional and parallel-access
// disk models.
type Device interface {
	// Submit enqueues a request; it is served FCFS (the parallel-access
	// device may merge same-cylinder requests into one access).
	Submit(req *Request)
	// Name identifies the device in statistics output.
	Name() string
	// Geom reports the device geometry.
	Geom() Geometry
	// QueueLen reports queued requests not yet in service.
	QueueLen() int
	// Utilization reports the time-weighted busy fraction.
	Utilization() float64
	// Accesses reports the number of physical accesses performed.
	Accesses() int64
	// PagesMoved reports the number of pages transferred.
	PagesMoved() int64
	// Instrument wires the device into the observability sink: its busy and
	// queue trackers become registry gauges, per-device read/write/page
	// counts become stats, and — when tracing is enabled — every access
	// emits seek/rotate/transfer phase spans on the device's track.
	Instrument(sink *obs.Sink)
}

// base holds state common to both device models.
type base struct {
	eng     *sim.Engine
	name    string
	geom    Geometry
	params  Params
	queue   []*Request
	busy    bool
	headCyl int

	busyTW     *sim.TimeWeighted
	queueTW    *sim.TimeWeighted
	accesses   int64
	pagesMoved int64
	reads      int64
	writes     int64

	sink   *obs.Sink
	hSvcMs *obs.Histogram
}

func newBase(eng *sim.Engine, name string, geom Geometry, params Params) base {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	return base{
		eng:     eng,
		name:    name,
		geom:    geom,
		params:  params,
		busyTW:  sim.NewTimeWeighted(eng),
		queueTW: sim.NewTimeWeighted(eng),
	}
}

func (b *base) Name() string         { return b.name }
func (b *base) Geom() Geometry       { return b.geom }
func (b *base) QueueLen() int        { return len(b.queue) }
func (b *base) Utilization() float64 { return b.busyTW.Mean() }
func (b *base) Accesses() int64      { return b.accesses }
func (b *base) PagesMoved() int64    { return b.pagesMoved }

// MeanQueue reports the time-weighted mean queue length.
func (b *base) MeanQueue() float64 { return b.queueTW.Mean() }

// Reads reports the number of read accesses performed.
func (b *base) Reads() int64 { return b.reads }

// Writes reports the number of write accesses performed.
func (b *base) Writes() int64 { return b.writes }

// Instrument implements Device.
func (b *base) Instrument(sink *obs.Sink) {
	b.sink = sink
	reg := sink.Reg
	pre := "disk." + b.name
	reg.RegisterGauge(pre+".busy", b.busyTW)
	reg.RegisterGauge(pre+".queue", b.queueTW)
	b.hSvcMs = reg.Histogram(pre + ".service.ms")
	reg.Func(pre+".utilization", b.Utilization)
	reg.Func(pre+".accesses", func() float64 { return float64(b.accesses) })
	reg.Func(pre+".pages", func() float64 { return float64(b.pagesMoved) })
	reg.Func(pre+".reads", func() float64 { return float64(b.reads) })
	reg.Func(pre+".writes", func() float64 { return float64(b.writes) })
}

// noteAccess does the per-access metrics bookkeeping shared by both device
// models and, when tracing is on, emits the access's seek / rotate /
// transfer phases as spans on the device's track. The phases start at the
// current virtual time (an access is timed from dispatch).
func (b *base) noteAccess(write bool, pages int, seek, rot, xfer sim.Time) {
	b.accesses++
	b.pagesMoved += int64(pages)
	if write {
		b.writes++
	} else {
		b.reads++
	}
	if b.sink == nil {
		return
	}
	b.hSvcMs.Observe((seek + rot + xfer).ToMs())
	if !b.sink.Tracing() {
		return
	}
	tr := b.sink.Tracer()
	start := b.eng.Now()
	op := "read"
	if write {
		op = "write"
	}
	tr.Span(b.name, op, start, start+seek+rot+xfer, map[string]any{"pages": pages})
	if seek > 0 {
		tr.Span(b.name+"/phase", "seek", start, start+seek, nil)
	}
	if rot > 0 {
		tr.Span(b.name+"/phase", "rotate", start+seek, start+seek+rot, nil)
	}
	if xfer > 0 {
		tr.Span(b.name+"/phase", "transfer", start+seek+rot, start+seek+rot+xfer, nil)
	}
}

func (b *base) checkRequest(req *Request) {
	if len(req.Pages) == 0 {
		panic(fmt.Sprintf("disk %s: empty request", b.name))
	}
	cap := b.geom.Capacity()
	for _, p := range req.Pages {
		if p < 0 || p >= cap {
			panic(fmt.Sprintf("disk %s: page %d out of range (capacity %d)", b.name, p, cap))
		}
	}
}

// Conventional is a moving-head disk that serves one request per access.
// Every access pays a distance-based seek (if the cylinder changes) plus
// rotational latency plus per-page transfer; there is no chained I/O,
// matching 1985-era drives without track buffers. Latency is Rotation/2 on
// average, except for an immediately-sequential access (the very next page
// on the same cylinder): with no read-ahead the sector has just passed
// under the head, so the disk waits most of a revolution.
type Conventional struct {
	base
	lastEnd int // page following the last one accessed, or -1
}

// NewConventional returns a conventional disk model.
func NewConventional(eng *sim.Engine, name string, geom Geometry, params Params) *Conventional {
	return &Conventional{base: newBase(eng, name, geom, params), lastEnd: -1}
}

// Submit implements Device.
func (d *Conventional) Submit(req *Request) {
	d.checkRequest(req)
	d.queue = append(d.queue, req)
	d.queueTW.Set(float64(len(d.queue)))
	if !d.busy {
		d.dispatch()
	}
}

func (d *Conventional) dispatch() {
	req := d.queue[0]
	d.queue = d.queue[1:]
	d.queueTW.Set(float64(len(d.queue)))
	seek, rot, xfer := d.servicePhases(req)
	svc := seek + rot + xfer
	d.busy = true
	d.busyTW.Set(1)
	d.noteAccess(req.Write, len(req.Pages), seek, rot, xfer)
	last := req.Pages[len(req.Pages)-1]
	d.headCyl = d.geom.CylinderOf(last)
	d.lastEnd = last + 1
	d.eng.After(svc, func() {
		d.busy = false
		d.busyTW.Set(0)
		if len(d.queue) > 0 {
			d.dispatch()
		}
		if req.Done != nil {
			req.Done()
		}
	})
}

// servicePhases computes the seek, rotational-latency, and transfer
// components of one access (service time is their sum). Multi-page
// requests are charged one latency, per-page transfer, and a minimum seek
// for every cylinder boundary crossed (folded into the transfer phase, as
// the arm moves mid-transfer). An immediately-sequential access (the next
// page after the previous request, same cylinder) pays a rotational miss:
// ~3/4 of a revolution instead of the 1/2 average.
func (d *Conventional) servicePhases(req *Request) (seek, rot, xfer sim.Time) {
	first := d.geom.CylinderOf(req.Pages[0])
	rot = d.params.Rotation / 2
	if first == d.headCyl && req.Pages[0] == d.lastEnd {
		rot = 3 * d.params.Rotation / 4
	}
	seek = d.params.SeekTime(first - d.headCyl)
	cur := first
	for _, p := range req.Pages {
		c := d.geom.CylinderOf(p)
		if c != cur {
			xfer += d.params.MinSeek
			cur = c
		}
		xfer += d.params.PageTransfer
	}
	return seek, rot, xfer
}

// Parallel is a SURE/DBC-style parallel-access disk: all pages on the
// different tracks of one cylinder can be read or written in a single
// access. When an access is dispatched, every queued request for the same
// cylinder and direction (read/write) is merged into it, so sequential
// workloads are served nearly a cylinder at a time.
type Parallel struct {
	base
}

// NewParallel returns a parallel-access disk model.
func NewParallel(eng *sim.Engine, name string, geom Geometry, params Params) *Parallel {
	return &Parallel{base: newBase(eng, name, geom, params)}
}

// Submit implements Device.
func (d *Parallel) Submit(req *Request) {
	d.checkRequest(req)
	cyl := d.geom.CylinderOf(req.Pages[0])
	for _, p := range req.Pages {
		if d.geom.CylinderOf(p) != cyl {
			panic(fmt.Sprintf("disk %s: parallel-access request spans cylinders", d.name))
		}
	}
	d.queue = append(d.queue, req)
	d.queueTW.Set(float64(len(d.queue)))
	if !d.busy {
		d.dispatch()
	}
}

func (d *Parallel) dispatch() {
	head := d.queue[0]
	cyl := d.geom.CylinderOf(head.Pages[0])
	// Merge every queued same-cylinder, same-direction request into this
	// access (the parallel read-out hardware serves them together).
	var batch []*Request
	rest := d.queue[:0]
	for _, r := range d.queue {
		if d.geom.CylinderOf(r.Pages[0]) == cyl && r.Write == head.Write {
			batch = append(batch, r)
		} else {
			rest = append(rest, r)
		}
	}
	d.queue = rest
	d.queueTW.Set(float64(len(d.queue)))

	perTrack := make(map[int]int)
	npages := 0
	for _, r := range batch {
		for _, p := range r.Pages {
			perTrack[d.geom.TrackOf(p)]++
			npages++
		}
	}
	maxTrack := 0
	for _, n := range perTrack {
		if n > maxTrack {
			maxTrack = n
		}
	}
	seek := d.params.SeekTime(cyl - d.headCyl)
	rot := d.params.Rotation / 2
	xfer := sim.Time(maxTrack) * d.params.PageTransfer
	if xfer > d.params.Rotation {
		// One revolution moves the whole cylinder; transfers cannot exceed it.
		xfer = d.params.Rotation
	}
	svc := seek + rot + xfer
	d.busy = true
	d.busyTW.Set(1)
	d.noteAccess(head.Write, npages, seek, rot, xfer)
	d.headCyl = cyl
	d.eng.After(svc, func() {
		d.busy = false
		d.busyTW.Set(0)
		if len(d.queue) > 0 {
			d.dispatch()
		}
		for _, r := range batch {
			if r.Done != nil {
				r.Done()
			}
		}
	})
}
