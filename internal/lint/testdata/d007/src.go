// Package fixture exercises rule D007: kernel-state escape. Posing as
// the WAL kernel, exported methods must not return or store references
// that alias kernel-internal state — every byte slice, map, or pointer
// crossing the Guard boundary must be a copy, so callers above the
// Guard can never race the single-threaded kernel.
//
//simlint:path internal/wal
package fixture

import (
	"fixture/d007/obs"
	"fixture/d007/pagestore"
)

// Pool is a stand-in buffer-pool kernel type.
type Pool struct {
	frames map[int64][]byte
	order  []int64
	logs   *pagestore.Store
	j      *obs.Journal
}

// Frame returns the cached page bytes without a copy: the caller holds
// an alias into the pool.
func (p *Pool) Frame(id int64) []byte {
	return p.frames[id]
}

// Order returns the internal eviction order slice directly.
func (p *Pool) Order() []int64 {
	return p.order
}

// Install stores the caller's slice into the pool without a copy: the
// caller keeps an alias into kernel state.
func (p *Pool) Install(id int64, data []byte) {
	p.frames[id] = data
}

// FrameCopy is the sanctioned idiom: copy before returning.
func (p *Pool) FrameCopy(id int64) []byte {
	return append([]byte(nil), p.frames[id]...)
}

// InstallCopy stores a private copy of the caller's slice: allowed.
func (p *Pool) InstallCopy(id int64, data []byte) {
	p.frames[id] = append([]byte(nil), data...)
}

// LogStore hands out the stable-storage substrate, which is thread-safe
// by contract: exempt from the boundary rule.
func (p *Pool) LogStore() *pagestore.Store {
	return p.logs
}

// SetJournal stores the sanctioned observation sink: exempt.
func (p *Pool) SetJournal(j *obs.Journal) {
	p.j = j
}

// Stats builds a fresh map per call: allowed.
func (p *Pool) Stats() map[string]int64 {
	return map[string]int64{
		"frames": int64(len(p.frames)),
		"order":  int64(len(p.order)),
	}
}

// Stores hands out a slice holding a stable store: only a single
// *pagestore.Store is exempt, so the fresh slice still carries the pointer
// into kernel state across the boundary and is flagged.
func (p *Pool) Stores() []*pagestore.Store {
	return []*pagestore.Store{p.logs}
}

// Frames builds a slice of NON-exempt slices into kernel state: it is
// flagged like Stores.
func (p *Pool) Frames() [][]byte {
	out := [][]byte{}
	for _, id := range p.order {
		out = append(out, p.frames[id])
	}
	return out
}
