// Package clock lies outside internal/, so D001 never looks at it: its
// wall-clock read is invisible to the sink rules, and only D004's import
// ban keeps it out of the kernel.
package clock

import "time"

// Read returns the host clock in nanoseconds.
func Read() int64 { return time.Now().UnixNano() }
