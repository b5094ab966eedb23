package serve

import (
	"bytes"
	"math"
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
// variant key of its own. Every rung of the ladder the daemon ships
// yields a valid spec, and a deeper rung is never stricter than a
// shallower one (or than full quality) on any knob.
func TestBrownedRelaxOnly(t *testing.T) {
	variants := map[string]int{(&wire.MeshSpec{}).Variant(): 0}
	prev := looseness(wire.MeshSpec{})
	for i, rung := range brownoutLadder {
		b := browned(wire.MeshSpec{}, rung)
		cur := looseness(b)
		if _, dup := variants[b.Variant()]; dup || b.Validate() != nil || cur[0] < prev[0] || cur[1] < prev[1] || cur[2] < prev[2] || cur[3] < prev[3] {
			t.Errorf("rung %d browns to %+v: want a valid spec, a variant of its own and no knob stricter than tier %d", i+1, b, i)
		}
		variants[b.Variant()], prev = i+1, cur
	}
	tier := brownoutTier{MaxRadiusEdge: 3, MinFacetAngle: 15, DeltaScale: 2, MaxElements: 100000}
	atTier := wire.MeshSpec{MaxRadiusEdge: 3, MinFacetAngle: 15, DeltaScale: 2, MaxElements: 100000}
	coarse := wire.MeshSpec{MaxRadiusEdge: 5, MinFacetAngle: 5, DeltaScale: 4, MaxElements: 50000}
	for in, want := range map[wire.MeshSpec]wire.MeshSpec{
		{}:     atTier, // the default knobs: every tier knob applies
		coarse: coarse, // nothing tightens
		{MaxRadiusEdge: 2, MinFacetAngle: 30, MaxElements: 500000}: atTier, // every knob relaxes to the tier
	} {
		if got := browned(in, tier); got != want {
			t.Errorf("browned(%+v) = %+v, want %+v", in, got, want)
		}
	}
}

// TestBrownoutControllerHysteresis drives decide() with a synthetic
// clock: escalation is immediate under pressure, de-escalation takes a
// full hold period of calm per tier, a blip of renewed pressure resets
// the calm timer, and deadline pressure escalates a shallow queue,
// refusing a wait the deepest tier cannot beat.
func TestBrownoutControllerHysteresis(t *testing.T) {
	const hold = 10 * time.Second
	b := newBrownoutController(brownoutLadder, hold, 16)
	now := time.Unix(1000, 0)
	for i, step := range []struct {
		after    time.Duration
		queued   int64
		p90      float64
		headroom time.Duration
		tier     int
		refuse   bool
	}{
		{0, 0, 0.1, time.Minute, 0, false},            // idle: full quality
		{0, 16, 0.9, time.Minute, 2, false},           // a full queue: the deepest tier at once
		{hold / 2, 0, 0.1, time.Minute, 2, false},     // calm, but not for a hold
		{0, 16, 0.9, time.Minute, 2, false},           // a blip resets the calm timer...
		{hold * 3 / 4, 0, 0.1, time.Minute, 2, false}, // ...so this is still within a hold
		{hold, 0, 0.1, time.Minute, 1, false},         // one tier per hold of calm
		{hold, 0, 0.1, time.Minute, 0, false},
		// A 60 s wait estimate blows a 10 s headroom: the deepest tier,
		// and past 4x the headroom, refused.
		{0, 2, 60, 10 * time.Second, 2, true},
		{0, 2, 30, 10 * time.Second, 2, false},
	} {
		now = now.Add(step.after)
		if tier, refuse := b.decide(now, step.queued, step.p90, step.headroom); tier != step.tier || refuse != step.refuse {
			t.Fatalf("step %d: decide = (%d, %v), want (%d, %v)", i, tier, refuse, step.tier, step.refuse)
		}
	}
}

// TestBrownoutVariantIsolation: a browned-out answer is cached under
// the degraded variant key only, so once the load is gone a
// full-quality request re-meshes at full quality: it is never answered
// the coarse blob. (TestBrownoutControllerHysteresis walks the
// controller back.)
func TestBrownoutVariantIsolation(t *testing.T) {
	degraded := browned(wire.MeshSpec{}, brownoutLadder[len(brownoutLadder)-1])
	runEndings(t, endingRow{name: "a full-quality request after a browned one",
		setup: func(t *testing.T, r *endingRig) {
			r.ref = withFaults(faultinject.BrownoutStuck, 1<<30, func() answer { return r.mesh("") })
			key := wire.ImageKey(r.base)
			if r.ref.Header.Get(BrownoutHeader) != "2" || !cached(r.srv.cache, key, degraded.Variant()) || cached(r.srv.cache, key, "") {
				t.Fatalf("the browned answer (tier %q) is not cached under its own variant alone", r.ref.Header.Get(BrownoutHeader))
			}
			r.srv.brownout = newBrownoutController(brownoutLadder, brownoutHold, 16) // calm again
		},
		act: func(t *testing.T, r *endingRig) answer {
			a := r.mesh("")
			if bytes.Equal(a.body, r.ref.body) {
				t.Error("the full-quality request was answered the coarse mesh")
			}
			return a
		},
		want: servedVTK, moved: served1})
}

// TestBrownoutCoalescedByteIdentity: a leader and a follower degraded
// to the same tier share one flight and receive byte-identical bodies,
// both stamped with the brownout header.
func TestBrownoutCoalescedByteIdentity(t *testing.T) {
	degraded := browned(wire.MeshSpec{}, brownoutLadder[len(brownoutLadder)-1])
	runEndings(t, endingRow{name: "a browned leader and its follower",
		moved: with(coalesced(1), "browned_out:2", 2, "leases", 1),
		act: func(t *testing.T, r *endingRig) answer {
			r.srv.brownout.hold, r.variant = time.Minute, degraded.Variant()
			defer faultinject.Enable(faultinject.New(faultinject.Config{
				Rates: map[faultinject.Point]float64{faultinject.BrownoutStuck: 1},
			}))()
			a := r.withLeader(ending{200, ""}, func() ending { r.ref = r.mesh(""); return r.ref.ending() }, r.follower)
			if r.ref.Header.Get(BrownoutHeader) != "2" || !bytes.Equal(r.ref.body, a.body) {
				t.Errorf("the leader answered tier %q, the follower tier 2: want the same body", r.ref.Header.Get(BrownoutHeader))
			}
			return a
		},
		want: func(r *endingRig) pin {
			p := served(degraded.Variant(), "vtk")(r)
			p.brownout = "2"
			return p
		}})
}
