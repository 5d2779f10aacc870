// Package stamp is an in-scope helper that calls into a module package
// outside every sink rule's scope.
//
//simlint:path internal/stamp
package stamp

import "fixture/d004chain/tools/clock"

// Now returns the tool's reading.
func Now() int64 { return clock.Read() }
