package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// BrownoutHeader is stamped on every response whose mesh was produced
// at a degraded tier, carrying the 1-based tier number. Full-quality
// responses carry no header at all, so a client (or the router) can
// detect degradation with a single presence check.
const BrownoutHeader = "X-Pi2md-Brownout"

// ErrOverloaded is returned when even the coarsest brownout tier
// cannot plausibly meet the request's deadline: the one case where the
// controller still refuses instead of degrading. It maps to 503 with
// a Retry-After derived from the queue estimate.
var ErrOverloaded = errors.New("serve: overloaded beyond the coarsest brownout tier")

// brownoutTier is one rung of the degradation ladder: the quality
// bounds a request is relaxed to when the controller is at that tier.
// Zero fields leave the corresponding spec knob alone, and every
// rewrite is relax-only — a tier can never make a request *stricter*
// than the client asked for.
type brownoutTier struct {
	// MaxRadiusEdge relaxes rule R4 to at least this bound (0 = keep).
	MaxRadiusEdge float64
	// MinFacetAngle relaxes rule R1 down to at most this many degrees
	// (0 = keep).
	MinFacetAngle float64
	// DeltaScale coarsens the effective δ by at least this factor
	// (0 or 1 = keep).
	DeltaScale float64
	// MaxElements caps the mesh at no more than this many elements
	// (0 = keep).
	MaxElements int
}

// brownoutLadder is the ladder every controller walks: tier 1 relaxes
// the quality bounds past the paper's defaults (R4 2→3, R1 30°→15°),
// tier 2 additionally halves the sampling density per axis (~8× fewer
// samples) and caps the element count — a genuine preview mesh.
// Read-only.
var brownoutLadder = []brownoutTier{
	{MaxRadiusEdge: 3, MinFacetAngle: 15},
	{MaxRadiusEdge: 4, MinFacetAngle: 10, DeltaScale: 2, MaxElements: 100000},
}

// browned returns a copy of the spec rewritten to tier t's bounds.
// Every rewrite is relax-only: a knob moves only in the cheaper
// direction, so a client that already asked for something coarser than
// the tier keeps what it asked for. The rewrite happens *before*
// variant-key derivation, so the degraded result is cached and
// coalesced under its own honest variant and can never poison a
// full-quality entry.
func browned(m wire.MeshSpec, t brownoutTier) wire.MeshSpec {
	if t.MaxRadiusEdge > 0 && (m.MaxRadiusEdge == 0 || m.MaxRadiusEdge < t.MaxRadiusEdge) {
		// 0 means "template default" (the paper's bound 2), which every
		// valid tier relaxes.
		m.MaxRadiusEdge = t.MaxRadiusEdge
	}
	if t.MinFacetAngle > 0 && (m.MinFacetAngle == 0 || m.MinFacetAngle > t.MinFacetAngle) {
		m.MinFacetAngle = t.MinFacetAngle
	}
	if t.DeltaScale > m.DeltaScale && t.DeltaScale > 1 {
		m.DeltaScale = t.DeltaScale
	}
	if t.MaxElements > 0 && (m.MaxElements == 0 || m.MaxElements > t.MaxElements) {
		m.MaxElements = t.MaxElements
	}
	return m
}

// brownoutController is the feedback controller that picks the tier.
// Inputs are the live EDF queue depth, the waiter's deadline headroom,
// and its p90 wait estimate; output is a ladder index (0 = full
// quality) plus a refuse verdict for the hopeless case. Escalation is
// immediate — by the time the queue says "overloaded" the cheap
// response is already late — while de-escalation steps down one tier
// per hold period of calm, the hysteresis that keeps a controller
// sitting at a tier boundary from flapping a client between qualities
// on alternate requests.
type brownoutController struct {
	ladder   []brownoutTier
	hold     time.Duration
	queueCap float64

	mu   sync.Mutex
	tier int       // current ladder position, 0..len(ladder)
	calm time.Time // start of the current spell of desired < tier
}

func newBrownoutController(ladder []brownoutTier, hold time.Duration, queueCap int) *brownoutController {
	return &brownoutController{ladder: ladder, hold: hold, queueCap: float64(queueCap)}
}

// Tier reports the controller's current ladder position (0 = full
// quality) without advancing it; it feeds the pi2md_brownout_tier
// gauge.
func (b *brownoutController) Tier() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tier
}

// decide advances the controller with one request's worth of evidence
// and returns the tier that request should run at. queued is the
// number of jobs already waiting admission, estWait the p90 wait
// estimate in seconds of a job joining behind them (Server.waitEstimate),
// headroom the requester's deadline budget.
func (b *brownoutController) decide(now time.Time, queued int64, estWait float64, headroom time.Duration) (tier int, refuse bool) {
	n := len(b.ladder)

	// Desired tier from queue pressure: the fill fraction maps linearly
	// onto the n+1 rungs (full quality plus n degraded tiers), so an
	// empty queue wants tier 0 and a full one wants the deepest tier.
	qf := float64(queued) / b.queueCap
	desired := int(qf * float64(n+1))
	if desired > n {
		desired = n
	}
	if desired < 0 {
		desired = 0
	}

	// Desired tier from deadline pressure: the wait estimate against the
	// requester's budget. If the estimate already eats the whole budget,
	// only the deepest tier has a chance; past half the budget, at least
	// some degradation does.
	est := time.Duration(estWait * float64(time.Second))
	if headroom > 0 && estWait > 0 {
		switch {
		case est > headroom:
			desired = n
		case 2*est > headroom && desired < 1:
			desired = 1
		}
	}

	if faultinject.Fire(faultinject.BrownoutStuck) {
		desired = n
	}

	// Refuse only when even the deepest tier is hopeless: the wait
	// estimate alone — before any meshing — blows far past the budget.
	// The 4× slack acknowledges that estWait is a p90 of *full-quality*
	// runs while the request will run at the coarsest tier.
	refuse = headroom > 0 && desired == n && est > 4*headroom

	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case desired >= b.tier:
		// Escalate (or hold) immediately; any spell of calm is over.
		b.tier = desired
		b.calm = time.Time{}
	default:
		// De-escalate one tier per hold period of sustained calm.
		if b.calm.IsZero() {
			b.calm = now
		} else if now.Sub(b.calm) >= b.hold {
			b.tier--
			b.calm = now
		}
	}
	return b.tier, refuse
}

// applyBrownout runs the controller for one request and returns the
// (possibly rewritten) spec plus the tier it was rewritten to. The
// deadline headroom is what is left of the job deadline the walk has
// already put on ctx. On refusal it returns ErrOverloaded.
func (s *Server) applyBrownout(ctx context.Context, spec wire.MeshSpec) (wire.MeshSpec, int, error) {
	deadline, _ := ctx.Deadline()
	queued := int64(s.pool.Waiters())
	tier, refuse := s.brownout.decide(time.Now(), queued, s.waitEstimate(queued, 0.90), time.Until(deadline))
	if refuse {
		return spec, 0, ErrOverloaded
	}
	if tier <= 0 {
		return spec, 0, nil
	}
	return browned(spec, s.brownout.ladder[tier-1]), tier, nil
}
