// Package fixture pins the chains simlint's old call-graph taint rule
// (D006) existed for. Posing as the WAL kernel, functions here reach a
// wall-clock or env sink through a helper package, or capture time.Now
// as a function value without calling it. Each sink is now reported
// where it is named: the helper's reads in internal/util, and the
// capture here, as D001.
//
//simlint:path internal/wal
package fixture

import (
	"math/rand"
	"time"

	"fixture/d006/internal/util"
)

// Manager is a stand-in kernel type.
type Manager struct {
	seed  int64
	clock func() time.Time
	stamp time.Time
}

// Recover reaches time.Now through a helper package; the helper's
// call is the finding.
func (m *Manager) Recover() error {
	m.stamp = util.WallStamp()
	return nil
}

// Configure reaches os.Getenv two hops away; again the helper's call is
// the finding.
func (m *Manager) Configure() string {
	return util.DefaultDir()
}

// AttachClock captures time.Now as a function value without calling it:
// the reference is the finding.
func (m *Manager) AttachClock() {
	m.clock = time.Now
}

// Shuffle builds an explicitly seeded local generator through a helper:
// constructors are not sinks, so it is clean.
func (m *Manager) Shuffle() *rand.Rand {
	return util.NewRNG(m.seed)
}

// Tick calls the injected clock: a call through a function value names
// no sink, and injection is exactly the sanctioned fix — clean.
func (m *Manager) Tick() time.Time {
	if m.clock == nil {
		return time.Time{}
	}
	return m.clock()
}
