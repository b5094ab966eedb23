package serve

import (
	"bytes"
	"testing"
)

// TestColdMissProbesCacheOnce: a request the cache cannot answer looks
// it up once — one index probe, one ENOENT at the key's blob path —
// with the brownout controller on, as the daemon runs it. An idle
// controller rewrites nothing, so there is no second identity to look
// up.
func TestColdMissProbesCacheOnce(t *testing.T) {
	runEndings(t, endingRow{name: "a cold request", act: post(""), want: servedVTK,
		moved: with(served1, "store_hits", 0, "store_misses", 1, "store_writes", 1)})
}

// TestCacheSurvivesRestart: a new Server over the same cache directory,
// the old store abandoned without Close as a kill -9 leaves it, answers
// a repeated request from disk: no session lease, the same entity.
func TestCacheSurvivesRestart(t *testing.T) {
	runEndings(t, endingRow{name: "a hit after a restart",
		setup: func(t *testing.T, r *endingRig) {
			r.ref = r.mesh("")
			r.ts.Close()
			r.srv, r.ts = newTestServer(t, Config{PoolSize: 1, Cache: openTestCache(t, r.dir)})
		},
		act: post(""), want: func(r *endingRig) pin { return pinOf(r.ref) },
		moved: with(cacheHit1, "leases", 0, "mem:entity,miss", 1)})
}

// flipVoxel returns a copy of a raw NRRD with the middle voxel's byte
// changed.
func flipVoxel(t *testing.T, nrrd []byte) []byte {
	data := bytes.Index(nrrd, []byte("\n\n")) + 2
	f := bytes.Clone(nrrd)
	f[data+(len(f)-data)/2] ^= 1
	return f
}
