package delaunay

import (
	"math/bits"

	"repro/internal/arena"
)

// tkey is the key of every per-operation lookup table: a cell or vertex
// handle, a canonical edge, or a sorted face, packed into 96 bits. No
// table ever holds keys of two different widths.
type tkey struct {
	ab uint64 // one handle, or the two smaller handles of an edge or face
	c  arena.Handle
}

func key1(h arena.Handle) tkey { return tkey{ab: uint64(h)} }

// table is the per-operation scratch map of the kernel: open addressing
// with linear probing over a power-of-two slot array, where a slot
// counts as occupied only while its generation equals the table's.
// clear therefore costs O(1) whatever the capacity — unlike clear on a
// Go map, which walks every group the map ever grew to, so that one
// large cavity taxed every later operation of the pooled scratch.
//
// An absent key reads as the zero V, and storing the zero V is how a
// key is deleted; every value the kernel stores is non-zero. The zero
// table is empty and ready for use.
type table[V any] struct {
	slots []tslot[V]
	shift uint8  // 64 - log2(len(slots))
	gen   uint32 // current generation; never 0 once slots exist
	used  int    // slots claimed in this generation
}

type tslot[V any] struct {
	k   tkey
	gen uint32
	v   V
}

const tableMinSlots = 64

// clear empties the table in O(1).
func (t *table[V]) clear() {
	t.used = 0
	t.gen++
	if t.gen == 0 { // wrapped: stale slots could alias the new generation
		clear(t.slots)
		t.gen = 1
	}
}

// find returns the slot claimed for k, or the free slot ending k's
// probe chain. The table must have slots.
func (t *table[V]) find(k tkey) *tslot[V] {
	// Fibonacci hashing: sequential handles (what an allocator hands
	// out) spread evenly over the top bits of the product.
	h := (k.ab ^ uint64(k.c)*0x9E3779B1) * 0x9E3779B97F4A7C15
	mask := uint64(len(t.slots) - 1)
	// shift is at most 58; the & 63 spares the oversize-shift check.
	for i := h >> (t.shift & 63); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen || s.k == k {
			return s
		}
	}
}

// get returns the value stored for k, the zero V if none.
func (t *table[V]) get(k tkey) (v V) {
	if t.used == 0 {
		return v
	}
	if s := t.find(k); s.gen == t.gen {
		return s.v
	}
	return v
}

// at returns the address of k's value, claiming a slot holding the zero
// V if k has none. The address is valid until the next at or clear.
func (t *table[V]) at(k tkey) *V {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	s := t.find(k)
	if s.gen != t.gen {
		*s = tslot[V]{k: k, gen: t.gen}
		t.used++
	}
	return &s.v
}

// grow doubles the slot array (or creates it), re-inserting the claimed
// slots.
func (t *table[V]) grow() {
	old, oldGen := t.slots, t.gen
	n := max(2*len(old), tableMinSlots)
	t.slots = make([]tslot[V], n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	t.gen = 1
	for i := range old {
		if s := &old[i]; s.gen == oldGen {
			*t.find(s.k) = tslot[V]{k: s.k, gen: 1, v: s.v}
		}
	}
}
