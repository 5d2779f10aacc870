// Package fixture shows D002 on a sink taken as a value: capturing
// rand.Intn draws from the global stream as surely as calling it. Type
// names of the package are not sinks.
//
//simlint:path internal/fixture
package fixture

import "math/rand"

// Draw captures the global stream's Intn: one violation.
func Draw() int {
	f := rand.Intn
	return f(10)
}

// Zipf names the generator types and builds a seeded one: clean.
func Zipf(seed int64) *rand.Zipf {
	var r *rand.Rand = rand.New(rand.NewSource(seed))
	return rand.NewZipf(r, 1.1, 1, 100)
}
