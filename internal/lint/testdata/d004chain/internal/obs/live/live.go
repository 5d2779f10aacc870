// Package live is a stand-in for the runtime metrics layer (matched by
// its import path suffix internal/obs/live).
package live

// Counter is a minimal stand-in for the real lock-free counter.
type Counter struct{ v int64 }

// Add bumps the counter.
func (c *Counter) Add(d int64) { c.v += d }
