package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestDrainHandoffEndpoint: POST /v1/drain flips the node to draining
// and answers its cached keys, most recently used first, each with its
// entity tag, so a router can pre-warm replica routing before ejecting
// it; cache-only reads are still served. What a draining node answers
// a meshing request is the draining rows of TestEveryEndingBooksOnce
// and TestPinMeshPath.
func TestDrainHandoffEndpoint(t *testing.T) {
	runEndings(t, endingRow{name: "a drain announcement", moved: mv(),
		setup: func(t *testing.T, r *endingRig) {
			meshOK(t, r.ts.Client(), r.ts.URL, "", nrrdBody(t, 7))
			r.meshOK()
		},
		act: func(t *testing.T, r *endingRig) answer {
			a := r.send("POST", "/v1/drain", "", nil)
			var got drainResponse
			json.Unmarshal(a.body, &got)
			want := drainResponse{NodeID: r.srv.NodeID(), Draining: true}
			for _, k := range r.srv.cache.KeysMRU() {
				want.Keys = append(want.Keys, drainKey{k.ImageKey, k.Variant, k.ETag})
			}
			if !reflect.DeepEqual(got, want) || len(got.Keys) != 2 || got.Keys[0].ImageKey != want.Keys[0].ImageKey || !r.srv.draining.Load() {
				t.Errorf("drain answered %+v, want %+v and the node draining", got, want)
			}
			return a
		}},
		// A draining node stays a read replica.
		endingRow{name: "a cache-only read after the announcement",
			setup: func(t *testing.T, r *endingRig) { r.meshOK(); r.send("POST", "/v1/drain", "", nil) },
			act:   probe(""), want: probed("", "vtk"), moved: with(cacheHit1, "cache_only_served", 1)})
}
