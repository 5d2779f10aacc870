// Package util is a helper package the kernel imports. Posing as an
// internal library, it is in scope of the sink rules, so each sink is
// reported here, where it is named, and not in every kernel function
// whose calls reach it.
//
//simlint:path internal/util
package util

import (
	"math/rand"
	"os"
	"time"
)

// WallStamp reads the host clock: D001.
func WallStamp() time.Time { return time.Now() }

// DefaultDir reads configuration from the environment: D005.
func DefaultDir() string { return os.Getenv("DBM_DIR") }

// NewRNG builds an explicitly seeded generator: allowed everywhere.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
