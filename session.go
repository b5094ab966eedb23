package pi2m

import (
	"context"
	"time"

	"repro/internal/core"
)

// ErrSessionBusy is returned by Session.Run when another Run is
// already in flight on the same session: runs never queue. Retry
// after the in-flight run returns, or give each caller its own Session.
var ErrSessionBusy = core.ErrSessionBusy

// SessionStats counts a Session's reuse behavior (runs, warm runs,
// cached-EDT hits); see internal/core.SessionStats.
type SessionStats = core.SessionStats

// Progress is a point-in-time snapshot of a running refinement,
// delivered to the WithProgress callback.
type Progress = core.Progress

// Option configures a Session at construction time. Options compose
// left to right; later options override earlier ones.
type Option func(*sessionOptions)

type sessionOptions struct {
	cfg core.Config
}

// WithThreads sets the number of refinement threads (default
// GOMAXPROCS).
func WithThreads(n int) Option {
	return func(o *sessionOptions) { o.cfg.Workers = n }
}

// WithDelta sets the δ sampling parameter in world units — the
// fidelity knob of Theorem 1 and the dominant mesh-size control
// (default: 2x the minimum voxel spacing).
func WithDelta(d float64) Option {
	return func(o *sessionOptions) { o.cfg.Delta = d }
}

// WithDeltaFunc varies δ over space; values are clamped to
// [Delta/4, Delta].
func WithDeltaFunc(f SizeFunc) Option {
	return func(o *sessionOptions) { o.cfg.DeltaFunc = f }
}

// WithSizeFunc sets sf(.) of rule R5, the user size function bounding
// circumradii (default: unconstrained).
func WithSizeFunc(f SizeFunc) Option {
	return func(o *sessionOptions) { o.cfg.SizeFunc = f }
}

// WithMaxElements stops refinement early once the final mesh reaches
// n tetrahedra (0 = unlimited).
func WithMaxElements(n int) Option {
	return func(o *sessionOptions) { o.cfg.MaxElements = n }
}

// WithMaxRadiusEdge sets the radius-edge ratio bound of rule R4
// (default 2, the paper's provable bound).
func WithMaxRadiusEdge(r float64) Option {
	return func(o *sessionOptions) { o.cfg.MaxRadiusEdge = r }
}

// WithMinFacetAngle sets the boundary planar angle bound of rule R3
// in degrees (default 30).
func WithMinFacetAngle(deg float64) Option {
	return func(o *sessionOptions) { o.cfg.MinFacetAngle = deg }
}

// WithContentionManager selects the contention manager: "aggressive",
// "random", "global" or "local" (default "local").
func WithContentionManager(name string) Option {
	return func(o *sessionOptions) { o.cfg.ContentionManager = name }
}

// WithBalancer selects the begging-list organization: "rws" or "hws"
// (default "hws").
func WithBalancer(name string) Option {
	return func(o *sessionOptions) { o.cfg.Balancer = name }
}

// WithLivelockTimeout aborts a run when no operation commits for this
// long. The watchdog is always armed: 0 keeps the one-minute default.
// The option stays only because the benchmark harness sets it; it goes
// once that harness no longer does.
func WithLivelockTimeout(d time.Duration) Option {
	return func(o *sessionOptions) { o.cfg.LivelockTimeout = d }
}

// WithProgress installs a running-snapshot callback, sampled every
// 250ms. The callback must be fast and thread-safe; a panic inside it
// aborts the run instead of crashing.
func WithProgress(f func(Progress)) Option {
	return func(o *sessionOptions) { o.cfg.Progress = f }
}

// Session is a reusable run engine. It retains the expensive
// allocations of the pipeline — mesh arenas, spatial grids, EDT
// buffers, per-thread refinement state — so consecutive Run calls
// reset-and-reuse instead of reallocating, and it caches the distance
// transform of the last image (by pointer identity).
//
// Runs are serialized; a Result's Mesh and Final handles stay valid
// only until the next Run on the same session. Reuse never changes
// output: a warm Run produces exactly the mesh a cold Run would.
type Session struct {
	s *core.Session
}

// NewSession validates the options and returns an empty session. The
// input image (and a context) are arguments to Run, not options — one
// session serves any sequence of images.
func NewSession(opts ...Option) (*Session, error) {
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	cs, err := core.NewSession(o.cfg)
	if err != nil {
		return nil, err
	}
	return &Session{s: cs}, nil
}

// Run performs the complete PI2M pipeline on image, reusing the
// session's retained allocations from previous runs. ctx, when
// non-nil, cooperatively cancels the refinement: the workers stop at
// the next operation boundary and Run returns a partial Result with
// StatusAborted.
func (s *Session) Run(ctx context.Context, image *Image) (*Result, error) {
	return s.RunTuned(ctx, image, nil)
}

// RunTuned is Run with per-run configuration overrides: tune receives
// a copy of the session's configuration template (image attached) and
// may adjust per-run quality knobs — Delta, MaxElements,
// MaxRadiusEdge, MinFacetAngle, SizeFunc — before validation. The
// template itself is never modified. See core.Session.RunTuned.
func (s *Session) RunTuned(ctx context.Context, image *Image, tune func(*Config)) (*Result, error) {
	return s.s.RunTuned(ctx, image, tune)
}

// Close releases the session's pooled per-worker scratch and marks it
// unusable; the mesh of the last Result stays valid. Idempotent.
func (s *Session) Close() error { return s.s.Close() }

// Invalidate drops the cached distance transform. Call it after
// mutating an image in place before re-running on it.
func (s *Session) Invalidate() { s.s.Invalidate() }

// Stats returns a snapshot of the session's reuse counters.
func (s *Session) Stats() SessionStats { return s.s.Stats() }
