package pagestore

import "slices"

// Table is the memory path's one page table, for the in-memory store's
// pages and the WAL's buffer pool and transactions: a map from id>>tableBits
// to blocks of 1<<tableBits slots, the blocks of the last tableCache block
// numbers touched cached direct-mapped, so a dense run of ids touches the
// map once per block change and an id anywhere in range costs what a dense
// one does. A block that empties is freed at the first access to another
// (so one slot filled and emptied over and over touches no map), and the
// last block freed serves the next new one. A zero slot must mean no entry.
// Keys are ascending. The zero Table is empty; Clear empties a Table and
// keeps its blocks. A Table is not safe for concurrent use.
type Table[K ~int64 | ~uint64, V any] struct {
	blocks map[K]*tableBlock[V]
	cache  [tableCache]struct {
		key K
		b   *tableBlock[V] // nil: caches nothing
	}
	idleKey     K
	idle, spare *tableBlock[V] // the last block to empty (at idleKey), the last freed
	n           int
}

const (
	tableBits  = 8  // ids that agree above their low tableBits bits share a block
	tableCache = 16 // cached blocks: 4,096 dense ids reach their slot without the map
)

type tableBlock[V any] struct {
	slots [1 << tableBits]V
	used  [1 << tableBits / 64]uint64 // bit i: slot i holds an entry
	n     int
}

func (b *tableBlock[V]) has(i int) bool { return b.used[i>>6]&(1<<(i&63)) != 0 }

// block returns id's block (nil if none and !create) and slot index.
func (t *Table[K, V]) block(id K, create bool) (*tableBlock[V], int) {
	key, i := id>>tableBits, int(id&(1<<tableBits-1))
	if t.idle != nil && key != t.idleKey {
		if t.idle.n == 0 {
			delete(t.blocks, t.idleKey)
			if c := &t.cache[t.idleKey&(tableCache-1)]; c.b == t.idle {
				c.b = nil
			}
			t.spare = t.idle
		}
		t.idle = nil
	}
	c := &t.cache[key&(tableCache-1)]
	if c.b == nil || c.key != key {
		b := t.blocks[key]
		if b == nil && !create {
			return nil, i
		}
		if b == nil {
			if b, t.spare = t.spare, nil; b == nil {
				b = new(tableBlock[V])
			}
			if t.blocks == nil {
				t.blocks = make(map[K]*tableBlock[V])
			}
			t.blocks[key] = b
		}
		c.key, c.b = key, b
	}
	return c.b, i
}

// Get returns id's slot, zero when id holds no entry.
func (t *Table[K, V]) Get(id K) (v V) {
	if b, i := t.block(id, false); b != nil && b.has(i) {
		v = b.slots[i]
	}
	return v
}

// Put returns id's slot to set, entering id with a zero slot if it has none.
func (t *Table[K, V]) Put(id K) *V {
	b, i := t.block(id, true)
	if !b.has(i) {
		b.used[i>>6] |= 1 << (i & 63)
		b.n++
		t.n++
	}
	return &b.slots[i]
}

// Delete removes id's entry, zeroing its slot.
func (t *Table[K, V]) Delete(id K) {
	b, i := t.block(id, false)
	if b == nil || !b.has(i) {
		return
	}
	b.slots[i] = *new(V)
	b.used[i>>6] &^= 1 << (i & 63)
	b.n--
	t.n--
	if b.n == 0 {
		t.idle, t.idleKey = b, id>>tableBits
	}
}

// Clear removes every entry but keeps the blocks, as clear keeps a map's
// buckets, so refilling the same ids allocates nothing.
func (t *Table[K, V]) Clear() {
	for _, b := range t.blocks {
		*b = tableBlock[V]{}
	}
	t.idle, t.n = nil, 0
}

// Len reports the number of entries.
func (t *Table[K, V]) Len() int { return t.n }

// Keys returns the ids of all entries in ascending order.
func (t *Table[K, V]) Keys() []K {
	keys := make([]K, 0, len(t.blocks))
	for k := range t.blocks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]K, 0, t.n)
	for _, k := range keys {
		for i, b := 0, t.blocks[k]; b.n > 0 && i < len(b.slots); i++ {
			if b.has(i) {
				out = append(out, k<<tableBits|K(i))
			}
		}
	}
	return out
}
