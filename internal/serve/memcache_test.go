package serve

import (
	"testing"

	"repro/internal/metrics"
)

// TestLRU pins what memCache adds to lru.Cache, whose own tests cover
// the bounds: its hit, miss and evict counts and resident-bytes gauge
// across an eviction and an over-budget refusal, a duplicate add
// keeping the resident value, and the doorkeeper refusing a key's first
// add.
func TestLRU(t *testing.T) {
	reg := metrics.NewRegistry()
	events := reg.CounterVec("events", "", "cache", "event")
	bytes := reg.GaugeVec("bytes", "", "cache")

	type step struct {
		op   string // "add" or "get"
		key  string
		size int64  // add: bytes accounted
		want string // get: the value expected, "" = a miss; add: the value add returns
	}
	cases := []struct {
		name            string
		steps           []step
		entries         int
		bytes           int64
		hit, miss, evic int64
		door            bool
	}{
		{"byte budget evicts the least recently used", []step{
			{"add", "a", 4, "a"}, {"add", "b", 4, "b"}, {"get", "a", 0, "a"}, // b is now the victim
			{"add", "c", 4, "c"}, {"get", "b", 0, ""}, {"get", "a", 0, "a"}, {"get", "c", 0, "c"},
		}, 2, 8, 3, 1, 1, false},
		{"larger than the whole budget is refused, evicting nothing", []step{
			{"add", "a", 4, "a"}, {"add", "huge", 11, "huge"}, {"get", "huge", 0, ""}, {"get", "a", 0, "a"},
		}, 1, 4, 1, 1, 0, false},
		{"a duplicate add keeps and returns the resident value", []step{
			{"add", "a", 4, "a"}, {"add", "a", 9, "a"}, {"get", "a", 0, "a"},
		}, 1, 4, 1, 0, 0, false},
		{"a doorkeeper admits a key on its second add", []step{
			{"add", "a", 4, "a"}, {"get", "a", 0, ""}, {"add", "b", 4, "b"},
			{"add", "a", 4, "a"}, {"get", "a", 0, "a"}, {"get", "b", 0, ""},
		}, 1, 4, 1, 2, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newMemCache[*string](tc.name, 10, 0, tc.door, events, bytes) // 10 bytes, no entry cap
			resident := map[string]*string{}
			for i, st := range tc.steps {
				switch st.op {
				case "add":
					v := new(string)
					*v = st.key
					got := c.add(st.key, v, st.size)
					if *got != st.want {
						t.Fatalf("step %d: add(%q) returned %q, want %q", i, st.key, *got, st.want)
					}
					if prev, dup := resident[st.key]; dup && got != prev {
						t.Fatalf("step %d: duplicate add(%q) replaced the resident value", i, st.key)
					}
					if _, in := c.cache.Peek(st.key); in {
						resident[st.key] = got
					}
				case "get":
					got, ok := c.get(st.key)
					if ok != (st.want != "") || (ok && *got != st.want) {
						t.Fatalf("step %d: get(%q) = %v, %v; want %q", i, st.key, got, ok, st.want)
					}
				}
			}
			if n, b := c.cache.Len(), c.cache.Bytes(); n != tc.entries || b != tc.bytes {
				t.Errorf("resident %d entries / %d bytes, want %d / %d", n, b, tc.entries, tc.bytes)
			}
			if got := bytes.Value(tc.name); got != tc.bytes {
				t.Errorf("bytes gauge = %d, want %d", got, tc.bytes)
			}
			if h, m, e := c.hit.Value(), c.miss.Value(), c.evict.Value(); h != tc.hit || m != tc.miss || e != tc.evic {
				t.Errorf("hit/miss/evict = %d/%d/%d, want %d/%d/%d", h, m, e, tc.hit, tc.miss, tc.evic)
			}
			if got := events.Value(tc.name, "evict"); got != tc.evic {
				t.Errorf("events{evict} series = %d, want %d", got, tc.evic)
			}
		})
	}
}
