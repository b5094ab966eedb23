package serve

import (
	"testing"

	"repro/internal/metrics"
)

// TestLRU pins the one type behind both in-process caches: byte
// accounting, least-recently-used eviction under either bound, the
// over-budget refusal, a duplicate add keeping the resident value, and
// its own event counts.
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
		budget          int64
		maxEntries      int
		steps           []step
		entries         int
		bytes           int64
		hit, miss, evic int64
	}{
		{"within both bounds", 10, 0, []step{
			{"add", "a", 4, "a"}, {"add", "b", 6, "b"}, {"get", "a", 0, "a"}, {"get", "b", 0, "b"},
		}, 2, 10, 2, 0, 0},
		{"byte budget evicts the least recently used", 10, 0, []step{
			{"add", "a", 4, "a"}, {"add", "b", 4, "b"}, {"get", "a", 0, "a"}, // b is now the victim
			{"add", "c", 4, "c"}, {"get", "b", 0, ""}, {"get", "a", 0, "a"}, {"get", "c", 0, "c"},
		}, 2, 8, 3, 1, 1},
		{"one add may evict several", 10, 0, []step{
			{"add", "a", 3, "a"}, {"add", "b", 3, "b"}, {"add", "c", 3, "c"}, {"add", "d", 9, "d"},
			{"get", "a", 0, ""}, {"get", "d", 0, "d"},
		}, 1, 9, 1, 1, 3},
		{"entry cap evicts with bytes to spare", 100, 2, []step{
			{"add", "a", 1, "a"}, {"add", "b", 1, "b"}, {"add", "c", 1, "c"},
			{"get", "a", 0, ""}, {"get", "b", 0, "b"}, {"get", "c", 0, "c"},
		}, 2, 2, 2, 1, 1},
		{"larger than the whole budget is refused, evicting nothing", 10, 0, []step{
			{"add", "a", 4, "a"}, {"add", "huge", 11, "huge"}, {"get", "huge", 0, ""}, {"get", "a", 0, "a"},
		}, 1, 4, 1, 1, 0},
		{"a duplicate add keeps and returns the resident value", 10, 0, []step{
			{"add", "a", 4, "a"}, {"add", "a", 9, "a"}, {"get", "a", 0, "a"},
		}, 1, 4, 1, 0, 0},
		{"a negative budget admits nothing", -1, 8, []step{
			{"add", "a", 1, "a"}, {"get", "a", 0, ""},
		}, 0, 0, 0, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newMemCache[*string](tc.name, tc.budget, tc.maxEntries, events, bytes)
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
					resident[st.key] = got
				case "get":
					got, ok := c.get(st.key)
					if ok != (st.want != "") || (ok && *got != st.want) {
						t.Fatalf("step %d: get(%q) = %v, %v; want %q", i, st.key, got, ok, st.want)
					}
				}
			}
			if st := c.stats(); st.Entries != tc.entries || st.Bytes != tc.bytes {
				t.Errorf("resident %d entries / %d bytes, want %d / %d", st.Entries, st.Bytes, tc.entries, tc.bytes)
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
