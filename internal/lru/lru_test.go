package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestCache pins the bounds: byte accounting, least-recently-used
// eviction under either bound, the over-budget refusal, a Put that
// replaces, and which removals the eviction callback hears of.
func TestCache(t *testing.T) {
	type step struct {
		op   string // "put", "get", "peek" or "remove"
		key  string
		size int64  // put: bytes charged
		want string // get/peek: the value expected, "" = a miss
	}
	cases := []struct {
		name       string
		budget     int64
		maxEntries int
		steps      []step
		mru        []string // keys, most recently used first
		bytes      int64
		evicted    []string
	}{
		{"within both bounds", 10, 0, []step{
			{"put", "a", 4, ""}, {"put", "b", 6, ""}, {"get", "a", 0, "a"}, {"get", "b", 0, "b"},
		}, []string{"b", "a"}, 10, nil},
		{"byte budget evicts the least recently used", 10, 0, []step{
			{"put", "a", 4, ""}, {"put", "b", 4, ""}, {"get", "a", 0, "a"}, // b is now the victim
			{"put", "c", 4, ""}, {"get", "b", 0, ""},
		}, []string{"c", "a"}, 8, []string{"b"}},
		{"peek leaves recency alone", 10, 0, []step{
			{"put", "a", 4, ""}, {"put", "b", 4, ""}, {"peek", "a", 0, "a"},
			{"put", "c", 4, ""}, {"peek", "a", 0, ""},
		}, []string{"c", "b"}, 8, []string{"a"}},
		{"one put may evict several", 10, 0, []step{
			{"put", "a", 3, ""}, {"put", "b", 3, ""}, {"put", "c", 3, ""}, {"put", "d", 9, ""},
		}, []string{"d"}, 9, []string{"a", "b", "c"}},
		{"entry cap evicts with bytes to spare", 100, 2, []step{
			{"put", "a", 1, ""}, {"put", "b", 1, ""}, {"put", "c", 1, ""},
		}, []string{"c", "b"}, 2, []string{"a"}},
		{"larger than the whole budget is refused, evicting nothing", 10, 0, []step{
			{"put", "a", 4, ""}, {"put", "huge", 11, ""}, {"put", "a", 11, ""}, {"get", "a", 0, "a"},
		}, []string{"a"}, 4, nil},
		{"a replacing put recharges and is not an eviction", 10, 0, []step{
			{"put", "a", 4, ""}, {"put", "b", 2, ""}, {"put", "a", 9, ""},
		}, []string{"a"}, 9, []string{"b"}},
		{"remove is not an eviction", 10, 0, []step{
			{"put", "a", 4, ""}, {"put", "b", 4, ""}, {"remove", "a", 0, ""}, {"remove", "a", 0, ""},
		}, []string{"b"}, 4, nil},
		{"a negative budget admits nothing", -1, 8, []step{
			{"put", "a", 0, ""}, {"get", "a", 0, ""},
		}, nil, 0, nil},
		{"the zero budget admits free entries under a cap", 0, 2, []step{
			{"put", "a", 0, ""}, {"put", "b", 0, ""}, {"put", "c", 1, ""}, {"put", "d", 0, ""},
		}, []string{"d", "b"}, 0, []string{"a"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []string
			c := Cache[string, string]{MaxBytes: tc.budget, MaxEntries: tc.maxEntries,
				OnEvict: func(k, v string) {
					if k != v {
						t.Errorf("evicted %q with value %q", k, v)
					}
					evicted = append(evicted, k)
				}}
			for i, st := range tc.steps {
				var got string
				var ok bool
				switch st.op {
				case "put":
					c.Put(st.key, st.key, st.size)
					continue
				case "remove":
					c.Remove(st.key)
					continue
				case "get":
					got, ok = c.Get(st.key)
				case "peek":
					got, ok = c.Peek(st.key)
				}
				if ok != (st.want != "") || got != st.want {
					t.Fatalf("step %d: %s(%q) = %q, %v; want %q", i, st.op, st.key, got, ok, st.want)
				}
			}
			var mru []string
			for k := range c.All() {
				mru = append(mru, k)
			}
			if !slices.Equal(mru, tc.mru) || c.Len() != len(tc.mru) || c.Bytes() != tc.bytes {
				t.Errorf("resident %v (len %d) / %d bytes, want %v / %d", mru, c.Len(), c.Bytes(), tc.mru, tc.bytes)
			}
			if !slices.Equal(evicted, tc.evicted) {
				t.Errorf("evicted %v, want %v", evicted, tc.evicted)
			}
		})
	}
}

// model is the reference Cache: a slice, most recently used first.
type model struct {
	maxBytes   int64
	maxEntries int
	entries    []modelEntry
}

type modelEntry struct {
	key, val int
	size     int64
}

func (m *model) find(key int) int {
	return slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.key == key })
}

func (m *model) bytes() (n int64) {
	for _, e := range m.entries {
		n += e.size
	}
	return n
}

func (m *model) get(key int, touch bool) (int, bool) {
	i := m.find(key)
	if i < 0 {
		return 0, false
	}
	e := m.entries[i]
	if touch {
		m.entries = slices.Insert(slices.Delete(m.entries, i, i+1), 0, e)
	}
	return e.val, true
}

// put returns whether it admitted the value and the keys evicted, oldest
// first.
func (m *model) put(key, val int, size int64) (bool, []int) {
	if size > m.maxBytes {
		return false, nil
	}
	if i := m.find(key); i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
	m.entries = slices.Insert(m.entries, 0, modelEntry{key, val, size})
	var evicted []int
	for len(m.entries) > 1 && (m.bytes() > m.maxBytes || (m.maxEntries > 0 && len(m.entries) > m.maxEntries)) {
		evicted = append(evicted, m.entries[len(m.entries)-1].key)
		m.entries = m.entries[:len(m.entries)-1]
	}
	return true, evicted
}

func (m *model) remove(key int) bool {
	i := m.find(key)
	if i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
	return i >= 0
}

// TestCacheMatchesModel runs random Get/Peek/Put/Remove sequences against
// the slice reference and checks, after every step, the answer, the
// recency order, both bounds, that the entry just put is resident unless
// refused, and that only bound-forced evictions reach the callback.
func TestCacheMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := &model{maxBytes: rng.Int63n(64), maxEntries: rng.Intn(6)}
			var evicted []int
			c := Cache[int, int]{MaxBytes: m.maxBytes, MaxEntries: m.maxEntries,
				OnEvict: func(k, _ int) { evicted = append(evicted, k) }}
			for step := 0; step < 400; step++ {
				key := rng.Intn(12)
				var what string
				evicted = evicted[:0]
				var wantEvicted []int
				switch op := rng.Intn(4); op {
				case 0, 1:
					what = fmt.Sprintf("Get(%d)", key)
					get := c.Get
					if op == 1 {
						what, get = fmt.Sprintf("Peek(%d)", key), c.Peek
					}
					got, ok := get(key)
					want, wantOK := m.get(key, op == 0)
					if got != want || ok != wantOK {
						t.Fatalf("step %d: %s = %d, %v; want %d, %v", step, what, got, ok, want, wantOK)
					}
				case 2:
					val, size := rng.Int(), rng.Int63n(m.maxBytes+8)
					what = fmt.Sprintf("Put(%d, size %d)", key, size)
					var wantOK bool
					wantOK, wantEvicted = m.put(key, val, size)
					if ok := c.Put(key, val, size); ok != wantOK {
						t.Fatalf("step %d: %s admitted %v, want %v", step, what, ok, wantOK)
					}
					if v, ok := c.Peek(key); wantOK && (!ok || v != val) {
						t.Fatalf("step %d: %s is not resident", step, what)
					}
				case 3:
					what = fmt.Sprintf("Remove(%d)", key)
					if got, want := c.Remove(key), m.remove(key); got != want {
						t.Fatalf("step %d: %s = %v, want %v", step, what, got, want)
					}
				}
				if !slices.Equal(evicted, wantEvicted) {
					t.Fatalf("step %d: %s evicted %v, want %v", step, what, evicted, wantEvicted)
				}
				var keys, wantKeys []int
				for k, v := range c.All() {
					keys = append(keys, k)
					if want, _ := m.get(k, false); v != want {
						t.Fatalf("step %d: after %s, %d holds %d, want %d", step, what, k, v, want)
					}
				}
				for _, e := range m.entries {
					wantKeys = append(wantKeys, e.key)
				}
				if !slices.Equal(keys, wantKeys) || c.Len() != len(wantKeys) || c.Bytes() != m.bytes() {
					t.Fatalf("step %d: after %s, MRU %v (len %d, %d bytes), want %v (%d bytes)",
						step, what, keys, c.Len(), c.Bytes(), wantKeys, m.bytes())
				}
				if c.Bytes() > max(c.MaxBytes, 0) || (c.MaxEntries > 0 && c.Len() > c.MaxEntries) {
					t.Fatalf("step %d: after %s, %d entries / %d bytes break the bounds %d / %d",
						step, what, c.Len(), c.Bytes(), c.MaxEntries, c.MaxBytes)
				}
			}
		})
	}
}

// TestDoorkeeper: a fingerprint is sighted from its second showing on,
// for as long as fewer than the ring's length of others came after it.
func TestDoorkeeper(t *testing.T) {
	var d Doorkeeper
	if d.Sighted(1) || !d.Sighted(1) || !d.Sighted(1) {
		t.Fatal("fingerprint 1 not sighted exactly from its second showing")
	}
	n := uint64(len(d.ring))
	for fp := uint64(2); fp < n+1; fp++ { // 1 and n-1 others fill the ring
		d.Sighted(fp)
	}
	if !d.Sighted(1) {
		t.Fatal("fingerprint 1 forgotten while still in the ring")
	}
	if d.Sighted(n+1) || d.Sighted(1) {
		t.Fatal("the ring's oldest fingerprint survived one more arrival")
	}
}
