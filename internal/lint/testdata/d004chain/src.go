// Package fixture shows D004's import ban over the import closure.
// Posing as internal/wal, it imports three helpers that are themselves
// in scope of every sink rule. One imports the runtime metrics layer,
// and one imports a module package no sink rule covers; both imports
// diagnose at the kernel, with the chain. The third reaches only the
// standard library and is clean.
//
//simlint:path internal/wal
package fixture

import (
	"fixture/d004chain/internal/codec"
	"fixture/d004chain/internal/metrics"
	"fixture/d004chain/internal/stamp"
)

// Redo is a stand-in kernel entry point; the violations are the imports
// above.
func Redo(b []byte) int64 {
	metrics.Count()
	return stamp.Now() + codec.Sum(b)
}
