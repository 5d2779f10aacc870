// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event heap, FCFS multi-server resources, and
// time-weighted statistics.
//
// The kernel is single-threaded and deterministic: given the same seed and
// the same sequence of Schedule calls, a simulation always produces the same
// trajectory. All model state is advanced by callbacks executed at their
// scheduled virtual times.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point in (or span of) virtual time, measured in microseconds.
type Time int64

// Convenient duration units in virtual time.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
)

// Ms converts a floating-point number of milliseconds to a Time.
func Ms(ms float64) Time { return Time(ms * float64(Millisecond)) }

// ToMs converts a Time to floating-point milliseconds.
func (t Time) ToMs() float64 { return float64(t) / float64(Millisecond) }

// String renders the time as milliseconds, the paper's unit.
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.ToMs()) }

type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulation executive. The zero value is not
// usable; create one with New.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	steps  uint64
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps reports the number of events executed so far; useful for runaway
// detection in tests.
func (e *Engine) Steps() uint64 { return e.steps }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d virtual time units from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Run executes events in timestamp order until no events remain.
func (e *Engine) Run() {
	for len(e.events) > 0 {
		e.step()
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t (even if no event is scheduled there).
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *Engine) step() {
	ev := heap.Pop(&e.events).(event)
	if ev.at < e.now {
		panic("sim: event heap corrupted (time went backwards)")
	}
	e.now = ev.at
	e.steps++
	ev.fn()
}
