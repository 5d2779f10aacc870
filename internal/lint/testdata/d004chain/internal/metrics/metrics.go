// Package metrics is an in-scope helper that imports the runtime
// metrics layer: fine for itself, banned from the kernel's closure.
//
//simlint:path internal/metrics
package metrics

import "fixture/d004chain/internal/obs/live"

var hits live.Counter

// Count ticks a runtime counter.
func Count() { hits.Add(1) }
