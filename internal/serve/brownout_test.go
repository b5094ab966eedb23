package serve

import (
	"bytes"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// looseness reads a spec's four quality knobs with their template
// defaults filled in (R4 2, R1 30°, δ scale 1, no element cap), each
// signed so that a larger value is a cheaper mesh.
func looseness(m wire.MeshSpec) [4]float64 {
	re, fa, ds, n := m.MaxRadiusEdge, m.MinFacetAngle, m.DeltaScale, float64(m.MaxElements)
	if re == 0 {
		re = 2
	}
	if fa == 0 {
		fa = 30
	}
	if ds < 1 {
		ds = 1
	}
	if n == 0 {
		n = math.Inf(1)
	}
	return [4]float64{re, -fa, ds, -n}
}

// TestBrownedRelaxOnly: a tier rewrite only ever moves a knob in the
// cheaper direction — a client that already asked for something
// coarser keeps what it asked for — and the rewritten spec derives a
// different variant key than the original. Every rung of the ladder
// the daemon ships is checked the same way: each yields a valid spec
// with a variant of its own, and a deeper rung is never stricter than a
// shallower one (or than full quality) on any knob.
func TestBrownedRelaxOnly(t *testing.T) {
	full := wire.MeshSpec{}
	variants := map[string]int{full.Variant(): 0}
	prev := looseness(full)
	for i, rung := range brownoutLadder {
		b := browned(wire.MeshSpec{}, rung)
		if err := b.Validate(); err != nil {
			t.Fatalf("rung %d browned spec fails validation: %v", i+1, err)
		}
		if j, dup := variants[b.Variant()]; dup {
			t.Fatalf("rung %d derives the same variant key as tier %d", i+1, j)
		}
		variants[b.Variant()] = i + 1
		cur := looseness(b)
		for k := range cur {
			if cur[k] < prev[k] {
				t.Fatalf("rung %d is stricter than tier %d on knob %d: %+v", i+1, i, k, b)
			}
		}
		prev = cur
	}

	tier := brownoutTier{MaxRadiusEdge: 3, MinFacetAngle: 15, DeltaScale: 2, MaxElements: 100000}

	// Default-knob request: every tier knob applies.
	d := browned(wire.MeshSpec{}, tier)
	if d.MaxRadiusEdge != 3 || d.MinFacetAngle != 15 || d.DeltaScale != 2 || d.MaxElements != 100000 {
		t.Fatalf("default spec browned = %+v, want all tier knobs applied", d)
	}
	empty := wire.MeshSpec{}
	if d.Variant() == empty.Variant() {
		t.Fatal("degraded spec derives the same variant key as full quality")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("browned spec fails validation: %v", err)
	}

	// Already-coarser request: nothing tightens.
	coarse := wire.MeshSpec{MaxRadiusEdge: 5, MinFacetAngle: 5, DeltaScale: 4, MaxElements: 50000}
	b := browned(coarse, tier)
	if b != coarse {
		t.Fatalf("coarser-than-tier spec was rewritten: %+v -> %+v", coarse, b)
	}

	// Stricter-than-tier request: every knob relaxes to the tier.
	strict := wire.MeshSpec{MaxRadiusEdge: 2, MinFacetAngle: 30, MaxElements: 500000}
	s := browned(strict, tier)
	if s.MaxRadiusEdge != 3 || s.MinFacetAngle != 15 || s.DeltaScale != 2 || s.MaxElements != 100000 {
		t.Fatalf("strict spec browned = %+v, want tier bounds", s)
	}
}

// TestBrownoutControllerHysteresis drives decide() with a synthetic
// clock: escalation is immediate under pressure, de-escalation takes a
// full hold period of calm per tier, and a blip of renewed pressure
// resets the calm timer.
func TestBrownoutControllerHysteresis(t *testing.T) {
	hold := 10 * time.Second
	b := newBrownoutController(brownoutLadder, hold, 16)
	now := time.Unix(1000, 0)

	// Idle: stays at full quality.
	if tier, refuse := b.decide(now, 0, 0.1, time.Minute); tier != 0 || refuse {
		t.Fatalf("idle decide = (%d,%v), want (0,false)", tier, refuse)
	}

	// Full queue: escalates to the deepest tier immediately.
	if tier, _ := b.decide(now, 16, 0.9, time.Minute); tier != 2 {
		t.Fatalf("saturated decide = tier %d, want 2", tier)
	}

	// Calm again, but not for long enough: holds the tier.
	now = now.Add(hold / 2)
	if tier, _ := b.decide(now, 0, 0.1, time.Minute); tier != 2 {
		t.Fatalf("calm %v decide = tier %d, want 2 (hold is %v)", hold/2, tier, hold)
	}

	// A pressure blip resets the calm timer.
	if tier, _ := b.decide(now, 16, 0.9, time.Minute); tier != 2 {
		t.Fatalf("blip decide = tier %d, want 2", tier)
	}
	now = now.Add(hold * 3 / 4)
	if tier, _ := b.decide(now, 0, 0.1, time.Minute); tier != 2 {
		t.Fatal("calm timer not reset by pressure blip")
	}

	// Sustained calm: one tier per hold period, never skipping.
	now = now.Add(hold)
	if tier, _ := b.decide(now, 0, 0.1, time.Minute); tier != 1 {
		t.Fatalf("after one hold of calm tier = %d, want 1", tier)
	}
	now = now.Add(hold)
	if tier, _ := b.decide(now, 0, 0.1, time.Minute); tier != 0 {
		t.Fatalf("after two holds of calm tier = %d, want 0", tier)
	}

	// Deadline pressure escalates even with a shallow queue: the wait
	// estimate (2 queued / 2 pool + 1) x 30s p90 lease = 60s blows a
	// 10s headroom.
	if tier, _ := b.decide(now, 2, 60, 10*time.Second); tier != 2 {
		t.Fatalf("deadline-pressure decide = tier %d, want 2", tier)
	}

	// Hopeless: the wait estimate alone, (8 queued / 2 pool + 1) x 30s =
	// 150s, exceeds 4x the headroom at the deepest tier.
	if _, refuse := b.decide(now, 8, 150, 10*time.Second); !refuse {
		t.Fatal("hopeless overload not refused")
	}
}

// TestBrownoutVariantIsolation: a browned-out response is cached under
// the degraded variant key only, and a follow-up full-quality request
// re-meshes at full quality — it never serves the coarse blob.
func TestBrownoutVariantIsolation(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	srv.brownout.hold = 10 * time.Millisecond

	// Pin the controller at maximal pressure: every request degrades to
	// the deepest tier.
	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Seed:  1,
		Rates: map[faultinject.Point]float64{faultinject.BrownoutStuck: 1},
	}))
	// Scale 6: large enough that the degraded tier's doubled δ
	// actually produces a different (smaller) mesh.
	body := nrrdBody(t, 6)
	key := wire.ImageKey(body)
	empty := wire.MeshSpec{}
	fullVariant := empty.Variant()
	ladder := brownoutLadder
	degSpec := browned(empty, ladder[len(ladder)-1])
	degradedVariant := degSpec.Variant()

	degraded := send(t, ts.Client(), "POST", ts.URL+"/v1/mesh", octet, body)
	if degraded.StatusCode != http.StatusOK || degraded.Header.Get(BrownoutHeader) != "2" {
		t.Fatalf("browned request: status %d, %s %q, want 200 at tier 2", degraded.StatusCode, BrownoutHeader, degraded.Header.Get(BrownoutHeader))
	}
	if !cached(srv.cache, key, degradedVariant) {
		t.Fatalf("degraded result not cached under its own variant %q", degradedVariant)
	}
	if cached(srv.cache, key, fullVariant) {
		t.Fatal("degraded result poisoned the full-quality cache entry")
	}
	restore()

	// Load is gone; the controller walks back to full quality one tier
	// per hold. Poll until a response carries no brownout header.
	var full []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("controller never returned to full quality")
		}
		time.Sleep(20 * time.Millisecond)
		a := send(t, ts.Client(), "POST", ts.URL+"/v1/mesh", octet, body)
		if a.StatusCode != http.StatusOK {
			t.Fatalf("post-storm request status %d: %s", a.StatusCode, a.body)
		}
		if a.Header.Get(BrownoutHeader) == "" {
			full = a.body
			break
		}
	}
	if !cached(srv.cache, key, fullVariant) {
		t.Fatal("full-quality result not cached under the full-quality variant")
	}
	if bytes.Equal(full, degraded.body) {
		t.Fatal("full-quality request served the coarse blob")
	}
	if l := ledger(srv); family(l, "browned_out") == 0 || l["brownout_tier"] != 0 {
		t.Fatalf("browned_out %d, tier %d; want >0 jobs and tier 0", family(l, "browned_out"), l["brownout_tier"])
	}
}

// TestBrownoutCoalescedByteIdentity: two concurrent requests degraded
// to the same tier share one coalesced flight and receive
// byte-identical bodies, both stamped with the brownout header.
func TestBrownoutCoalescedByteIdentity(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	srv.brownout.hold = time.Minute
	restore := faultinject.Enable(faultinject.New(faultinject.Config{
		Seed: 1,
		Rates: map[faultinject.Point]float64{
			faultinject.BrownoutStuck: 1,
			faultinject.SlowSession:   1,
		},
		MaxFires: map[faultinject.Point]int64{faultinject.SlowSession: 1},
		Delay:    200 * time.Millisecond,
	}))
	defer restore()

	body := nrrdBody(t, 2)
	replies := make([]answer, 2)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = send(t, ts.Client(), "POST", ts.URL+"/v1/mesh", octet, body)
		}(i)
		// Stagger just enough that the second arrives while the first
		// (stalled by SlowSession) is still leading the flight.
		time.Sleep(30 * time.Millisecond)
	}
	wg.Wait()
	for i, r := range replies {
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d: %s", i, r.StatusCode, r.body)
		}
		if got := r.Header.Get(BrownoutHeader); got != "2" {
			t.Fatalf("request %d %s = %q, want \"2\"", i, BrownoutHeader, got)
		}
	}
	if !bytes.Equal(replies[0].body, replies[1].body) {
		t.Fatal("coalesced degraded responses differ byte-for-byte")
	}
}
