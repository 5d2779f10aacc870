// Package cache models the database machine's disk cache: a fixed pool of
// page frames shared by all query processors, managed by the back-end
// controller. The machine allocates a frame before reading a page and
// releases it when the page has been processed or written back.
//
// The cache also accounts for the paper's key logging statistic: the number
// of updated pages sitting in the cache waiting for their log records to
// reach stable storage ("blocked" frames).
//
// For observability the cache additionally keeps a residency tracker: an
// LRU set of as many physical page numbers as there are frames, advanced
// by NoteAccess on every data-disk read. It yields hit/miss/eviction
// counters and a hit ratio without changing any timing — the simulated
// machine of the paper always fetches from disk.
package cache

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Cache is a frame accountant; callers that find no free frame queue
// themselves.
type Cache struct {
	eng    *sim.Engine
	frames int
	free   int

	usedTW    *sim.TimeWeighted
	blockedTW *sim.TimeWeighted
	blocked   int

	// Residency tracker (observability only; never affects timing).
	resident  map[int]bool
	lru       []int // front is the eviction victim
	hits      int64
	misses    int64
	evictions int64

	sink *obs.Sink
}

// New returns a cache with the given number of page frames.
func New(eng *sim.Engine, frames int) *Cache {
	if frames <= 0 {
		panic("cache: frame count must be positive")
	}
	return &Cache{
		eng:       eng,
		frames:    frames,
		free:      frames,
		usedTW:    sim.NewTimeWeighted(eng),
		blockedTW: sim.NewTimeWeighted(eng),
		resident:  make(map[int]bool, frames),
	}
}

// Instrument wires the cache into the observability sink: its used and
// blocked trackers become registry gauges and its counters become stats.
func (c *Cache) Instrument(sink *obs.Sink) {
	c.sink = sink
	reg := sink.Reg
	reg.RegisterGauge("cache.used", c.usedTW)
	reg.RegisterGauge("cache.blocked", c.blockedTW)
	reg.Func("cache.hits", func() float64 { return float64(c.hits) })
	reg.Func("cache.misses", func() float64 { return float64(c.misses) })
	reg.Func("cache.evictions", func() float64 { return float64(c.evictions) })
	reg.Func("cache.hitRatio", c.HitRatio)
}

// Frames reports the total frame count.
func (c *Cache) Frames() int { return c.frames }

// Free reports currently unallocated frames.
func (c *Cache) Free() int { return c.free }

// Used reports currently allocated frames.
func (c *Cache) Used() int { return c.frames - c.free }

// TryAlloc claims a frame immediately if one is free.
func (c *Cache) TryAlloc() bool {
	if c.free == 0 {
		return false
	}
	c.free--
	c.usedTW.Set(float64(c.Used()))
	c.traceUsage()
	return true
}

// Release returns one frame to the pool.
func (c *Cache) Release() {
	if c.free == c.frames {
		panic(fmt.Sprintf("cache: release with all %d frames free", c.frames))
	}
	c.free++
	c.usedTW.Set(float64(c.Used()))
	c.traceUsage()
}

// AdjustBlocked records a change in the number of updated pages blocked in
// the cache waiting for their log records to be written.
func (c *Cache) AdjustBlocked(delta int) {
	c.blocked += delta
	if c.blocked < 0 {
		panic("cache: negative blocked count")
	}
	c.blockedTW.Set(float64(c.blocked))
	if c.sink != nil && c.sink.Tracing() {
		c.sink.Tracer().Counter("cache", "blocked", c.eng.Now(), float64(c.blocked))
	}
}

// traceUsage emits a counter sample of frame usage when tracing is on.
func (c *Cache) traceUsage() {
	if c.sink != nil && c.sink.Tracing() {
		c.sink.Tracer().Counter("cache", "used", c.eng.Now(), float64(c.Used()))
	}
}

// NoteAccess advances the residency tracker with a read of physical page
// p and reports whether it was a (hypothetical) hit. The tracker is purely
// observational: the machine still performs the disk read either way.
func (c *Cache) NoteAccess(p int) bool {
	if c.resident[p] {
		c.hits++
		// Move p to the most-recently-used end.
		for i, v := range c.lru {
			if v == p {
				copy(c.lru[i:], c.lru[i+1:])
				c.lru[len(c.lru)-1] = p
				break
			}
		}
		return true
	}
	c.misses++
	if len(c.lru) >= c.frames {
		victim := c.lru[0]
		c.lru = c.lru[1:]
		delete(c.resident, victim)
		c.evictions++
	}
	c.lru = append(c.lru, p)
	c.resident[p] = true
	return false
}

// HitRatio reports hits / (hits + misses), or 0 before any access.
func (c *Cache) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Blocked reports the current number of blocked updated pages.
func (c *Cache) Blocked() int { return c.blocked }

// MeanBlocked reports the time-weighted mean number of blocked pages — the
// statistic the paper reports as "pages waiting for their log records".
func (c *Cache) MeanBlocked() float64 { return c.blockedTW.Mean() }

// MaxBlocked reports the peak number of blocked pages.
func (c *Cache) MaxBlocked() float64 { return c.blockedTW.Max() }

// MeanUsed reports the time-weighted mean number of allocated frames.
func (c *Cache) MeanUsed() float64 { return c.usedTW.Mean() }
