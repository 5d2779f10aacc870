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
