package delaunay

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/arena"
)

// TestTableMatchesMap drives a table and a Go map with the same random
// store/delete/lookup/clear sequence, over keys that collide often, and
// requires identical answers throughout — across growth, deletion (the
// zero value) and many generations.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb table[int]
	ref := map[tkey]int{}
	for step := 1; step < 200000; step++ {
		k := tkey{ab: uint64(rng.Intn(40))<<32 | uint64(rng.Intn(3)), c: arena.Handle(rng.Intn(2))}
		switch op := rng.Intn(100); {
		case op < 45:
			*tb.at(k) = step
			ref[k] = step
		case op < 65:
			*tb.at(k) = 0
			delete(ref, k)
		case op < 66:
			tb.clear()
			clear(ref)
		default:
			if got, want := tb.get(k), ref[k]; got != want {
				t.Fatalf("step %d: get(%v) = %d, map has %d", step, k, got, want)
			}
		}
	}
}

// TestTableGenerationWrap forces the generation counter around: slots
// stamped in generation g must not come back to life 2^32 clears later.
func TestTableGenerationWrap(t *testing.T) {
	var tb table[int]
	*tb.at(key1(7)) = 1
	tb.gen = ^uint32(0)
	*tb.at(key1(9)) = 2
	tb.clear()
	if tb.gen == 0 {
		t.Fatal("generation 0 is the stamp of never-used slots")
	}
	for _, h := range []arena.Handle{7, 9} {
		if v := tb.get(key1(h)); v != 0 {
			t.Fatalf("key %d = %d survived the wrapping clear", h, v)
		}
	}
	*tb.at(key1(7)) = 3
	if v := tb.get(key1(7)); v != 3 {
		t.Fatalf("after wrap: get = %d, want 3", v)
	}
}

// BenchmarkTable measures one operation's worth of scratch-table work —
// clear, n inserts, 3n lookups, the shape of a cavity walk — at the
// cavity sizes the kernel sees (median ~20 cells, tail in the hundreds),
// against the Go map it replaced. The "after4096" variants first grow
// the structure once to a 4096-key cavity: the table's clear stays
// O(1), the map's clear walks its grown capacity on every operation.
func BenchmarkTable(b *testing.B) {
	keys := make([]tkey, 4096)
	for i := range keys {
		keys[i] = key1(arena.Handle(3<<arena.ChunkShift + 7*i))
	}
	var sink uint8
	for _, n := range []int{16, 64, 512} {
		for _, grown := range []bool{false, true} {
			name := strconv.Itoa(n)
			if grown {
				name += "/after4096"
			}
			b.Run("table/"+name, func(b *testing.B) {
				var tb table[uint8]
				if grown {
					for _, k := range keys {
						*tb.at(k) = 1
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tb.clear()
					for _, k := range keys[:n] {
						*tb.at(k) = 1
					}
					for r := 0; r < 3; r++ {
						for _, k := range keys[:n] {
							sink += tb.get(k)
						}
					}
				}
			})
			b.Run("map/"+name, func(b *testing.B) {
				m := make(map[arena.Handle]uint8, 64)
				if grown {
					for _, k := range keys {
						m[arena.Handle(k.ab)] = 1
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(m)
					for _, k := range keys[:n] {
						m[arena.Handle(k.ab)] = 1
					}
					for r := 0; r < 3; r++ {
						for _, k := range keys[:n] {
							sink += m[arena.Handle(k.ab)]
						}
					}
				}
			})
		}
	}
	_ = sink
}
