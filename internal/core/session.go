package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/cm"
	"repro/internal/delaunay"
	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/spatial"
)

// ErrSessionBusy is returned by Session.Run when another Run is
// already in flight on the same session. The session is unharmed;
// retry after the in-flight run returns, or use another session.
var ErrSessionBusy = errors.New("core: session busy: concurrent Run on the same Session")

// Session is a reusable run engine: it owns the long-lived allocations
// of the PI2M pipeline — the mesh's cell/vertex arenas, the spatial
// hash grids, the EDT working buffers, and the per-thread refinement
// state (PELs, inboxes, kernel workers) — so that consecutive Run
// calls on same-shaped inputs reset-and-reuse instead of reallocating.
//
// A Session is safe for use from multiple goroutines, but it executes
// one run at a time: a Run that finds another Run in flight fails
// fast with ErrSessionBusy instead of queueing behind it. Callers
// that want to multiplex concurrent work over warm sessions should
// hold several sessions (see internal/serve.Pool, which relies on
// exactly this busy-rejection contract). The Result of a Run (its
// Mesh and Final handles) remains valid only until the next Run on
// the same session, which recycles the arenas underneath it; extract
// what you need (quality stats, I/O) before re-running, or use
// separate sessions.
//
// Reuse does not change output: a warm Run produces exactly the mesh a
// cold Run would for the same configuration and image (bit-identical
// with Workers=1; statistically identical under speculative
// parallelism, exactly as two cold runs are).
type Session struct {
	// running is the in-use flag: Run sets it with a CAS and clears it
	// on return, so a concurrent Run fails fast with ErrSessionBusy
	// instead of blocking on mu for the whole duration of the run.
	running     atomic.Bool
	busyRejects atomic.Int64

	mu     sync.Mutex
	tmpl   Config
	closed bool

	mesh    *delaunay.Mesh
	threads []*thread

	isoGrid *spatial.Grid
	ccGrid  *spatial.Grid

	// EDT working buffers plus a cache of the last transform, keyed by
	// image pointer identity: re-running on the same *img.Image skips
	// the transform entirely.
	edtComp edt.Computer
	edtIm   *img.Image
	edtTr   *edt.Transform

	stats SessionStats
}

// SessionStats counts a session's reuse behavior.
type SessionStats struct {
	// Runs is the number of completed Run calls.
	Runs int
	// WarmRuns counts runs that reused the mesh arenas and per-thread
	// state of a previous run (every run after the first, unless the
	// worker count changed).
	WarmRuns int
	// WarmEDTHits counts runs that reused the cached distance
	// transform outright (same image pointer).
	WarmEDTHits int
	// BusyRejects counts Run calls rejected with ErrSessionBusy
	// because another Run was in flight.
	BusyRejects int64
}

// NewSession validates the configuration knobs and returns an empty
// session. cfg.Image is ignored here — the image (and a context) are
// per-Run arguments; all other fields act as the template for every
// Run.
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Session{tmpl: cfg}, nil
}

// Stats returns a snapshot of the session's reuse counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.BusyRejects = s.busyRejects.Load()
	return st
}

// Invalidate drops the cached distance transform. Call it after
// mutating an image in place before re-running on it; runs on a
// different *img.Image never see stale data (the cache is keyed by
// pointer identity).
func (s *Session) Invalidate() {
	s.mu.Lock()
	s.edtIm, s.edtTr = nil, nil
	s.mu.Unlock()
}

// Close releases the session's pooled per-worker scratch back to the
// package pools and marks the session unusable. The mesh of the last
// Result is left intact — it remains valid after Close. Close is
// idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, t := range s.threads {
		t.w.Release()
	}
	s.threads = nil
	s.isoGrid, s.ccGrid = nil, nil
	s.edtIm, s.edtTr = nil, nil
	s.edtComp = edt.Computer{}
	return nil
}

// Run performs the complete PI2M pipeline — parallel EDT, parallel
// Delaunay refinement, final-mesh extraction — on the given image,
// reusing the session's retained allocations from previous runs where
// the shapes allow. ctx, when non-nil, cooperatively cancels the
// refinement: once it is done (deadline or cancel), the workers stop at
// the next operation boundary and Run returns a partial Result with
// StatusAborted, the final-mesh cells extracted so far, and the
// cancellation reason. The mesh remains structurally valid — every
// committed operation is atomic under the locking protocol.
//
// Run does not queue: if another Run is already in flight on this
// session it returns ErrSessionBusy immediately.
func (s *Session) Run(ctx context.Context, image *img.Image) (*Result, error) {
	return s.RunTuned(ctx, image, nil)
}

// RunTuned is Run with per-run configuration overrides: tune, when
// non-nil, receives a copy of the session template (image attached)
// and may adjust per-run knobs — Delta, MaxElements, MaxRadiusEdge,
// MinFacetAngle, SizeFunc — before validation. The template itself is
// never modified, and the session's retained allocations adapt: a
// grid that no longer fits the tuned Delta is rebuilt, everything
// else reuses warm. This is the hook the serving layer's pool uses to
// honor per-request quality knobs over shared sessions.
func (s *Session) RunTuned(ctx context.Context, image *img.Image, tune func(*Config)) (*Result, error) {
	if !s.running.CompareAndSwap(false, true) {
		s.busyRejects.Add(1)
		return nil, ErrSessionBusy
	}
	defer s.running.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: Run on closed Session")
	}
	cfg := s.tmpl
	cfg.Image = image
	if tune != nil {
		tune(&cfg)
		// The per-run image always wins over a tune that clobbers it.
		cfg.Image = image
		// Worker-count changes are a template-level decision: the
		// per-thread state is sized by the template, so a tuned run
		// keeps the session's parallelism.
		cfg.Workers = s.tmpl.Workers
		if err := cfg.validate(); err != nil {
			return nil, err
		}
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return s.run(ctx, cfg)
}

// run executes one refinement with the session lock held and cfg fully
// defaulted.
func (s *Session) run(ctx context.Context, cfg Config) (*Result, error) {
	r := newRefiner(ctx, cfg)

	res := &Result{Config: cfg}
	wallStart := time.Now()

	// Pre-processing: the parallel Euclidean distance transform. The
	// session reuses the Computer's buffers always, and the finished
	// transform itself when the image is unchanged.
	edtStart := time.Now()
	if s.edtTr != nil && s.edtIm == cfg.Image {
		s.stats.WarmEDTHits++
	} else {
		s.edtTr = s.edtComp.Compute(cfg.Image, cfg.Workers)
		s.edtIm = cfg.Image
	}
	r.edt = s.edtTr
	res.EDTTime = time.Since(edtStart)

	// The virtual box is the image's world bounding box. A retained
	// mesh resets in place, recycling its arena chunks.
	lo, hi := r.im.Bounds()
	warm := s.mesh != nil
	if err := s.bootstrap(lo, hi); err != nil {
		return nil, fmt.Errorf("core: bootstrap triangulation: %w", err)
	}
	r.mesh = s.mesh
	// One worker is one owner: the mesh and the grids below take no
	// locks (the aux goroutines of startAux only read run counters).
	single := cfg.Workers == 1
	s.mesh.SetSingleOwner(single)

	// The sparsity grids reshape in place: consecutive images of
	// different shapes share the bucket arrays of the largest.
	if s.isoGrid == nil {
		s.isoGrid, s.ccGrid = new(spatial.Grid), new(spatial.Grid)
	}
	s.isoGrid.Reshape(lo, hi, cfg.Delta)
	s.ccGrid.Reshape(lo, hi, 2*cfg.Delta)
	s.isoGrid.SetSingleOwner(single)
	s.ccGrid.SetSingleOwner(single)
	r.isoGrid, r.ccGrid = s.isoGrid, s.ccGrid

	// Coordination state is cheap and run-scoped: built fresh.
	r.coord = cm.NewCoordinator(cfg.Workers)
	r.cm = cfg.newCM(r.coord)
	r.bal = cfg.newBalancer()

	// Per-thread state: retained threads reset (keeping PEL/inbox/
	// inside capacity and the kernel workers' operation scratch);
	// a changed worker count rebuilds.
	if warm && len(s.threads) == cfg.Workers {
		for _, t := range s.threads {
			t.resetForRun()
		}
		s.stats.WarmRuns++
	} else {
		for _, t := range s.threads {
			t.w.Release()
		}
		s.threads = make([]*thread, cfg.Workers)
		for i := range s.threads {
			s.threads[i] = &thread{id: i, w: s.mesh.NewWorker(i)}
		}
	}
	r.threads = s.threads

	// Seed thread 0 with the bootstrap cells (only the main thread has
	// work initially, Section 4.4).
	t0 := r.threads[0]
	r.mesh.LiveCells(func(h arena.Handle, c *delaunay.Cell) {
		r.noteCreated(t0, h, c)
	})
	r.publishInside(t0)
	r.flushScratch(t0)

	r.startWall = time.Now()
	stopAux := r.startAux()

	var wg sync.WaitGroup
	for _, t := range r.threads {
		wg.Add(1)
		go func(t *thread) {
			defer wg.Done()
			r.workerLoop(t)
		}(t)
	}
	wg.Wait()
	stopAux()

	res.RefineTime = time.Since(r.startWall)
	res.TotalTime = time.Since(wallStart)
	r.collect(res)
	s.stats.Runs++
	return res, nil
}

// bootstrap resets the retained mesh over [lo, hi], or builds the
// session's first one. A panic there — only the fault harness can
// inject one — becomes the error, and the session drops the mesh so
// the next Run builds afresh.
func (s *Session) bootstrap(lo, hi geom.Vec3) (err error) {
	defer func() {
		if p := recover(); p != nil {
			s.mesh = nil
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if s.mesh != nil {
		return s.mesh.Reset(lo, hi)
	}
	m, err := delaunay.NewMesh(lo, hi)
	if err == nil {
		s.mesh = m
	}
	return err
}

// resetForRun readies a retained thread for a fresh run: every slice
// keeps its capacity, every counter restarts, and the kernel worker
// re-attaches to the recycled arenas.
func (t *thread) resetForRun() {
	t.w.PrepareReuse()
	t.pel = t.pel[:0]
	t.removals = t.removals[:0]
	t.inbox.items = t.inbox.items[:0]
	t.inbox.n.Store(0)
	t.inside = t.inside[:0]
	t.insideDelta = 0
	t.poorOwn = 0
	t.poorForeign.Store(0)
	t.rollbackNs = 0
	t.streak = rollbackStreak{}
	t.ruleCount = [7]int64{}
	t.scratch = t.scratch[:0]
}
