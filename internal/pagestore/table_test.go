package pagestore

import (
	"math"
	"slices"
	"testing"
)

// TestTableUnsignedEdges drives a Table keyed by uint64, as the WAL keys its
// transactions, over ids on both sides of block boundaries, of the sign bit
// and of the top of the range. Keys lists them in unsigned order, a slot
// keeps its value until deleted, and emptied blocks are freed: once every
// id is gone and another block has been touched, the map holds at most the
// one block that emptied last.
func TestTableUnsignedEdges(t *testing.T) {
	ids := []uint64{0, 255, 256, 511, 1 << 20, math.MaxInt64, 1 << 63, math.MaxUint64 - 256, math.MaxUint64}
	var tab Table[uint64, uint64]
	for _, id := range ids {
		*tab.Put(id) = id ^ 0x5a
	}
	if got := tab.Keys(); !slices.Equal(got, ids) {
		t.Fatalf("Keys = %v, want %v", got, ids)
	}
	for _, id := range ids {
		if v := tab.Get(id); v != id^0x5a {
			t.Fatalf("Get(%d) = %d, want %d", id, v, id^0x5a)
		}
		if tab.Get(id+1) != 0 && !slices.Contains(ids, id+1) {
			t.Fatalf("Get(%d) found an id never put", id+1)
		}
	}
	for i, id := range ids {
		tab.Delete(id)
		tab.Delete(id) // absent: a no-op
		if tab.Get(id) != 0 || tab.Len() != len(ids)-i-1 {
			t.Fatalf("after deleting %d: Get = %v, Len = %d", id, tab.Get(id), tab.Len())
		}
	}
	tab.Get(12345 << tableBits)
	if len(tab.blocks) > 1 || len(tab.Keys()) != 0 {
		t.Fatalf("an empty table holds %d blocks and lists %v", len(tab.blocks), tab.Keys())
	}
	// A slot filled and emptied over and over reuses its block.
	allocs := testing.AllocsPerRun(100, func() {
		*tab.Put(7) = 1
		tab.Delete(7)
	})
	if allocs != 0 {
		t.Fatalf("filling and emptying one slot allocates %.0f times", allocs)
	}
}

// TestTableClear: Clear empties a table but keeps its blocks, so a refill of
// the same ids allocates nothing, and a refill with other ids lists just
// those, in ascending order.
func TestTableClear(t *testing.T) {
	ids := []int64{-300, -1, 0, 7, 255, 256, 1 << 40}
	var tab Table[int64, int64]
	fill := func(ids []int64) {
		for _, id := range ids {
			*tab.Put(id) = id | 1
		}
	}
	fill(ids)
	tab.Clear()
	if tab.Len() != 0 || len(tab.Keys()) != 0 {
		t.Fatalf("after Clear: Len = %d, Keys = %v", tab.Len(), tab.Keys())
	}
	for _, id := range ids {
		if v := tab.Get(id); v != 0 {
			t.Fatalf("after Clear, Get(%d) = %d", id, v)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		tab.Clear()
		fill(ids)
	})
	if allocs != 0 {
		t.Fatalf("clearing and refilling the same ids allocates %.0f times", allocs)
	}
	other := []int64{1<<40 + 3, -2, 512, 3}
	tab.Clear()
	fill(other)
	want := slices.Clone(other)
	slices.Sort(want)
	if got := tab.Keys(); !slices.Equal(got, want) || tab.Len() != len(want) {
		t.Fatalf("after a refill with other ids: Keys = %v, Len = %d; want %v", got, tab.Len(), want)
	}
}
