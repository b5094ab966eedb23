// Package router is the distributed meshing tier: a thin HTTP proxy
// that consistent-hashes the (image SHA-256, quality variant) key —
// the same identity the backends use for coalescing and the persistent
// result cache — onto a fleet of pi2md nodes, so repeat and coalescable
// traffic for an image always lands where its warm state (sessions, EDT
// transform cache, cached blobs) already lives.
//
// The layering mirrors the single-node design: Ring owns ownership
// math and nothing else; the health prober owns membership; Router
// owns routing, the buffering proxy with its failover ladder and its
// cache reads, and metrics. cmd/pi2mrouter is the daemon wrapping a
// Router in an http.Server.
package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint64
	member int32 // index into Ring.members
}

// Ring is an immutable consistent-hash ring over a member list. Each
// member contributes vnodes virtual points; a key is owned by the
// member whose point follows the key's hash clockwise. Immutability
// keeps ownership deterministic and lets the Router swap rings
// atomically on membership change — lookups never see a half-updated
// ring.
type Ring struct {
	members []string // sorted, deduplicated
	vnodes  int
	points  []ringPoint // sorted by hash
}

// NewRing builds a ring over members with the given virtual-node count
// per member (vnodes <= 0 selects 128). Member order does not matter:
// the same set always builds the same ring, so every router instance
// agrees on ownership given the same healthy set.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	// Deduplicate: a member listed twice must not get double weight.
	uniq := sorted[:0]
	for i, m := range sorted {
		if i == 0 || m != sorted[i-1] {
			uniq = append(uniq, m)
		}
	}
	r := &Ring{members: uniq, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   ringHash(m + "#" + strconv.Itoa(v)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between vnodes are broken by member index so
		// ownership stays deterministic regardless of input order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// ringHash hashes a string position onto the ring: FNV-1a mixed
// through the splitmix64 finalizer. FNV alone clusters structured
// inputs ("host#1", "host#2", ...); the finalizer's avalanche spreads
// them, which the distribution-skew bound depends on.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (the same mixer the fault
// injector uses): full avalanche, cheap, dependency-free.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Members returns the ring's sorted member list (read-only).
func (r *Ring) Members() []string { return r.members }

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}

// Replicas returns up to n distinct members for key, owner first, then
// the members met walking the ring clockwise — the fallback ladder a
// router tries when the owner is unavailable. n is clamped to the
// member count.
func (r *Ring) Replicas(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	kh := ringHash(key)
	// First point with hash >= kh, wrapping at the end.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}
