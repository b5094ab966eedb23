package lru

// Doorkeeper is the admission rule in front of a cache whose misses are
// mostly one-shot: a value is kept only once it is asked for a second
// time. It remembers the last 1,024 64-bit fingerprints it was shown,
// in a ring. Two keys that fingerprint alike only admit one of them a
// sighting early, so the cache behind it must still be keyed by the
// full key. Like Cache it is not safe for concurrent use; the zero
// value is ready, and counts the fingerprint 0 as seen.
type Doorkeeper struct {
	ring [1024]uint64
	next int
}

// Sighted reports whether fp is among the fingerprints remembered, and
// remembers it if it is not.
func (d *Doorkeeper) Sighted(fp uint64) bool {
	for _, s := range d.ring {
		if s == fp {
			return true
		}
	}
	d.ring[d.next] = fp
	d.next = (d.next + 1) % len(d.ring)
	return false
}
