package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAllocRelease(t *testing.T) {
	c := New(sim.New(), 3)
	if c.Frames() != 3 || c.Free() != 3 || c.Used() != 0 {
		t.Fatal("fresh cache wrong counts")
	}
	if !c.TryAlloc() || !c.TryAlloc() || !c.TryAlloc() {
		t.Fatal("allocation failed with free frames")
	}
	if c.TryAlloc() {
		t.Fatal("allocation succeeded with no free frames")
	}
	c.Release()
	if c.Free() != 1 {
		t.Fatalf("free = %d", c.Free())
	}
}

func TestReleaseAllFreePanics(t *testing.T) {
	c := New(sim.New(), 1)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	c.Release()
}

func TestBlockedAccounting(t *testing.T) {
	e := sim.New()
	c := New(e, 10)
	c.AdjustBlocked(3)
	if c.Blocked() != 3 {
		t.Fatalf("blocked = %d", c.Blocked())
	}
	e.RunUntil(10 * sim.Millisecond)
	c.AdjustBlocked(-3)
	e.RunUntil(20 * sim.Millisecond)
	m := c.MeanBlocked()
	if m < 1.4 || m > 1.6 {
		t.Fatalf("mean blocked = %v, want ~1.5", m)
	}
	if c.MaxBlocked() != 3 {
		t.Fatalf("max blocked = %v", c.MaxBlocked())
	}
}

func TestNegativeBlockedPanics(t *testing.T) {
	c := New(sim.New(), 1)
	defer func() {
		if recover() == nil {
			t.Error("negative blocked did not panic")
		}
	}()
	c.AdjustBlocked(-1)
}

func TestZeroFramesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero frames did not panic")
		}
	}()
	New(sim.New(), 0)
}

func TestFrameConservationProperty(t *testing.T) {
	// Property: after any sequence of allocs and matching releases,
	// free + used == frames, TryAlloc succeeds exactly while a frame is
	// free, and releasing every held frame empties the cache.
	f := func(ops []bool, framesRaw uint8) bool {
		frames := int(framesRaw%16) + 1
		c := New(sim.New(), frames)
		held := 0
		for _, alloc := range ops {
			if alloc {
				ok := c.TryAlloc()
				if ok != (held < frames) {
					return false
				}
				if ok {
					held++
				}
			} else if held > 0 {
				c.Release()
				held--
			}
			if c.Free()+c.Used() != frames || c.Used() != held {
				return false
			}
		}
		for ; held > 0; held-- {
			c.Release()
		}
		return c.Free() == frames && c.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
