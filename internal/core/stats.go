package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/balance"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/quality"
)

// TimelinePoint is one sample of the Figure 6 overhead curve: by wall
// time Wall, the threads had cumulatively wasted OverheadNs
// nanoseconds on contention, idling and rollbacks.
type TimelinePoint struct {
	Wall       time.Duration
	OverheadNs int64
}

// RunStats aggregates the per-thread counters of a run (the wasted-
// cycles breakdown of Section 5.5).
type RunStats struct {
	Threads int

	// Committed operations.
	Inserts  int64
	Removals int64

	// Outcomes of failed speculative attempts.
	Rollbacks int64
	StaleOps  int64
	FailedOps int64

	// RuleCounts[rule] counts committed operations per refinement rule.
	RuleCounts [7]int64

	// The three overhead components (totals across threads).
	ContentionNs  int64 // blocked in / accessing the contention manager
	LoadBalanceNs int64 // idling on the begging list
	RollbackNs    int64 // partially-completed work discarded by rollbacks

	// PerThreadOverheadNs is the per-thread sum of all three.
	PerThreadOverheadNs []int64

	Transfers balance.TransferStats

	// Kernel-level counters. LocksAcquired is 0 for a Workers == 1 run
	// by design: its mesh is single-owner and takes no vertex locks.
	WalkSteps     int64
	LocksAcquired int64
	CavityCells   int64

	// DanglingPoorCount is the sum of the per-thread poor-element
	// counters at termination; the push/pop/invalidate protocol pairs
	// every increment with exactly one decrement, so it is zero at a
	// fixpoint. A run that aborted or hit MaxElements leaves its queued
	// elements counted.
	DanglingPoorCount int64
}

// TotalOverheadNs is the sum of the three overhead components.
func (s *RunStats) TotalOverheadNs() int64 {
	return s.ContentionNs + s.LoadBalanceNs + s.RollbackNs
}

// Status classifies how a run ended.
type Status int

const (
	// StatusCompleted: the run terminated normally with all criteria
	// met.
	StatusCompleted Status = iota
	// StatusAborted: the run stopped early (cancellation, a panic, or
	// a stall the watchdog caught). The Result is partial: the mesh is
	// structurally valid but quality/fidelity criteria may be unmet;
	// Reason and Err carry the first cause.
	StatusAborted
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusCompleted:
		return "completed"
	case StatusAborted:
		return "aborted"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Result is the outcome of a PI2M run.
type Result struct {
	Config Config

	// Mesh is the full triangulation; Final lists the cells whose
	// circumcenter lies inside the object O — the output mesh M of
	// Figure 1c.
	Mesh  *delaunay.Mesh
	Final []arena.Handle

	EDTTime    time.Duration
	RefineTime time.Duration
	TotalTime  time.Duration

	// Status classifies the outcome; Reason is the text of the first
	// cause when the run aborted (empty otherwise).
	Status Status
	Reason string
	cause  error

	// Livelocked reports that the stall watchdog aborted the run: no
	// operation committed for Config.LivelockTimeout. This is Table 1's
	// livelock column; the Status is StatusAborted and Reason names the
	// stall.
	Livelocked bool

	Stats    RunStats
	Timeline []TimelinePoint
}

// Err returns nil for a completed run and, for an aborted one, an
// error wrapping the first cause: errors.Is(err, context.Canceled) or
// context.DeadlineExceeded tells the caller's own cut from an engine
// abort.
func (r *Result) Err() error {
	if r.Status != StatusAborted {
		return nil
	}
	return fmt.Errorf("core: run aborted: %w", r.cause)
}

// radiusEdgeSlack is the factor Validate allows a completed run's worst
// radius-edge ratio above Config.MaxRadiusEdge (2.5 at the default 2):
// rule R4's bound is provable, but "due to numerical errors, these
// bounds might be smaller in practice than what theory suggests"
// (paper Section 7).
const radiusEdgeSlack = 1.25

// Validate checks the Result against the invariants every run keeps and
// returns errors.Join of one error per broken invariant, each naming
// it, or nil. Any run, aborted or not, keeps a structurally valid mesh
// (Mesh.Check) and a watertight boundary (no border edge). A run that
// reached its fixpoint — completed and not cut by MaxElements — also
// released every poor-element count, has a non-empty final mesh, and
// keeps its worst radius-edge ratio within radiusEdgeSlack of
// Config.MaxRadiusEdge. Like Snapshot, it must be called before the
// owning session's next Run.
func (r *Result) Validate() error {
	var errs []error
	if err := r.Mesh.Check(); err != nil {
		errs = append(errs, fmt.Errorf("mesh structure: %w", err))
	}
	tris := SnapshotOf(r.Mesh, r.Final, r.Config.Image).BoundaryTriangles()
	if n := quality.SurfaceTopology(tris).BorderEdges; n != 0 {
		errs = append(errs, fmt.Errorf("watertight boundary: %d border edges", n))
	}
	if r.Status != StatusCompleted || (r.Config.MaxElements > 0 && r.Elements() >= r.Config.MaxElements) {
		return errors.Join(errs...)
	}
	if n := r.Stats.DanglingPoorCount; n != 0 {
		errs = append(errs, fmt.Errorf("poor-element count: %d dangling at the fixpoint", n))
	}
	if len(r.Final) == 0 {
		errs = append(errs, errors.New("final mesh: empty at the fixpoint"))
	}
	worst := 0.0
	for _, h := range r.Final {
		c := r.Mesh.Cells.At(h)
		worst = max(worst, geom.RadiusEdgeRatio(
			r.Mesh.Pos(c.V[0]), r.Mesh.Pos(c.V[1]), r.Mesh.Pos(c.V[2]), r.Mesh.Pos(c.V[3])))
	}
	if bound := radiusEdgeSlack * r.Config.MaxRadiusEdge; worst > bound {
		errs = append(errs, fmt.Errorf("radius-edge bound: worst ratio %.3f exceeds %.3f", worst, bound))
	}
	return errors.Join(errs...)
}

// Elements returns the number of tetrahedra in the final mesh.
func (r *Result) Elements() int { return len(r.Final) }

// Quality evaluates the paper's quality metrics (dihedral angles,
// radius-edge ratios, boundary planar angles) over the final mesh:
// MeshSnapshot.Quality of the run's snapshot.
func (r *Result) Quality() quality.Stats { return r.Snapshot().Quality() }

// RunSummary is a compact, serialization-friendly digest of a Result
// — what a serving layer logs, exposes over a stats endpoint, or
// folds into metrics without holding the mesh alive.
type RunSummary struct {
	Status       string  `json:"status"`
	Reason       string  `json:"reason,omitempty"`
	Elements     int     `json:"elements"`
	CellsPerSec  float64 `json:"cells_per_sec"`
	EDTMillis    float64 `json:"edt_ms"`
	RefineMillis float64 `json:"refine_ms"`
	TotalMillis  float64 `json:"total_ms"`
	Threads      int     `json:"threads"`
	Inserts      int64   `json:"inserts"`
	Removals     int64   `json:"removals"`
	Rollbacks    int64   `json:"rollbacks"`
}

// Summary digests the run into a RunSummary.
func (r *Result) Summary() RunSummary {
	return RunSummary{
		Status:       r.Status.String(),
		Reason:       r.Reason,
		Elements:     r.Elements(),
		CellsPerSec:  r.ElementsPerSecond(),
		EDTMillis:    float64(r.EDTTime) / 1e6,
		RefineMillis: float64(r.RefineTime) / 1e6,
		TotalMillis:  float64(r.TotalTime) / 1e6,
		Threads:      r.Stats.Threads,
		Inserts:      r.Stats.Inserts,
		Removals:     r.Stats.Removals,
		Rollbacks:    r.Stats.Rollbacks,
	}
}

// ElementsPerSecond is the generation rate the paper reports.
func (r *Result) ElementsPerSecond() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return float64(r.Elements()) / r.TotalTime.Seconds()
}

// collect assembles the Result after the workers have quiesced.
func (r *Refiner) collect(res *Result) {
	res.Mesh = r.mesh
	res.Timeline = r.timeline
	res.Livelocked = r.livelocked.Load()
	if r.failed.Load() {
		res.Status, res.cause, res.Reason = StatusAborted, r.cause, r.cause.Error()
	}

	s := &res.Stats
	s.Threads = r.cfg.Workers
	s.PerThreadOverheadNs = make([]int64, r.cfg.Workers)
	for i, t := range r.threads {
		ws := t.w.Stats
		s.Inserts += ws.Inserts
		s.Removals += ws.Removals
		s.Rollbacks += ws.Rollbacks
		s.StaleOps += ws.StaleOps
		s.FailedOps += ws.FailedOps
		s.WalkSteps += ws.WalkSteps
		s.LocksAcquired += ws.LocksAcquired
		s.CavityCells += ws.CavityCells
		for rule, n := range t.ruleCount {
			s.RuleCounts[rule] += n
		}
		cn := r.cm.ContentionNs(i)
		ln := r.bal.IdleNs(i)
		rn := atomic.LoadInt64(&t.rollbackNs)
		s.ContentionNs += cn
		s.LoadBalanceNs += ln
		s.RollbackNs += rn
		s.PerThreadOverheadNs[i] = cn + ln + rn
	}
	s.Transfers = r.bal.Transfers()
	for _, t := range r.threads {
		s.DanglingPoorCount += t.poorOwn + t.poorForeign.Load()
	}

	// Final mesh: the per-thread inside lists, filtered for cells that
	// survived refinement (Section 4.3's on-the-fly bookkeeping). On a
	// single-owner mesh a slot can be listed once per inside cell it
	// has held, so each live inside cell is kept once, at its last entry
	// — its latest creation: the lists are walked backwards, a kept
	// cell's Aux marks it, and the result is reversed. DanglingPoorCount
	// has been read above, so the counts in Aux are spent; the marks are
	// cleared again, leaving every Aux zero as a completed run does.
	for i := len(r.threads) - 1; i >= 0; i-- {
		inside := r.threads[i].inside
		for j := len(inside) - 1; j >= 0; j-- {
			h := inside[j]
			c := r.mesh.Cells.At(h)
			if c.Dead() || !c.Inside() || c.Aux.Load() == finalMark {
				continue
			}
			c.Aux.Store(finalMark)
			res.Final = append(res.Final, h)
		}
	}
	slices.Reverse(res.Final)
	for _, h := range res.Final {
		r.mesh.Cells.At(h).Aux.Store(0)
	}
}

// finalMark is the Aux value collect leaves on a cell it has put in
// Final; a thread id + 1 never reaches it.
const finalMark = ^uint32(0)
