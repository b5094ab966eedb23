package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/balance"
	"repro/internal/delaunay"
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
	// every increment with exactly one decrement, so it must be zero.
	DanglingPoorCount int64

	// Failure-model counters (see DESIGN.md "Failure model").
	RecoveredPanics int64 // worker panics recovered in place
	DroppedItems    int64 // elements/removals dropped after exhausting the retry budget
	CallbackPanics  int64 // panics recovered inside user callbacks
}

// TotalOverheadNs is the sum of the three overhead components.
func (s *RunStats) TotalOverheadNs() int64 {
	return s.ContentionNs + s.LoadBalanceNs + s.RollbackNs
}

// Status classifies how a run ended.
type Status int

const (
	// StatusCompleted: the run terminated normally with all criteria
	// met and no failure handling engaged.
	StatusCompleted Status = iota
	// StatusDegraded: the run produced a complete, valid mesh, but the
	// failure machinery engaged along the way (recovered worker or
	// callback panics). Transitions and the stats say what happened.
	StatusDegraded
	// StatusAborted: the run stopped early (cancellation, an exhausted
	// panic budget, or a stall the watchdog caught). The Result is
	// partial: the mesh is structurally valid but quality/fidelity
	// criteria may be unmet; Reason carries the structured cause.
	StatusAborted
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusCompleted:
		return "completed"
	case StatusDegraded:
		return "degraded"
	case StatusAborted:
		return "aborted"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Transition is one recorded action of the failure-handling machinery:
// a cancellation, a callback panic, or an abort.
type Transition struct {
	// Wall is the refinement wall-clock time of the transition.
	Wall time.Duration
	// Event is the machine-readable kind: "cancel", "callback-panic",
	// "abort".
	Event string
	// Detail is the human-readable explanation.
	Detail string
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

	// Status classifies the outcome; Reason is the structured cause
	// when the run aborted (empty otherwise).
	Status Status
	Reason string

	// Transitions logs every failure-handling action in order.
	Transitions []Transition

	// Livelocked reports that the stall watchdog aborted the run: no
	// operation committed for Config.LivelockTimeout. This is Table 1's
	// livelock column; the Status is StatusAborted and the last
	// Transition is the "abort" that names the stall.
	Livelocked bool

	Stats    RunStats
	Timeline []TimelinePoint
}

// Err returns a non-nil error when the run aborted, carrying the
// structured reason; nil for completed and degraded runs.
func (r *Result) Err() error {
	if r.Status != StatusAborted {
		return nil
	}
	if r.Reason != "" {
		return fmt.Errorf("core: run aborted: %s", r.Reason)
	}
	return fmt.Errorf("core: run aborted")
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
	Status          string  `json:"status"`
	Reason          string  `json:"reason,omitempty"`
	Elements        int     `json:"elements"`
	CellsPerSec     float64 `json:"cells_per_sec"`
	EDTMillis       float64 `json:"edt_ms"`
	RefineMillis    float64 `json:"refine_ms"`
	TotalMillis     float64 `json:"total_ms"`
	Threads         int     `json:"threads"`
	Inserts         int64   `json:"inserts"`
	Removals        int64   `json:"removals"`
	Rollbacks       int64   `json:"rollbacks"`
	RecoveredPanics int64   `json:"recovered_panics,omitempty"`
	DroppedItems    int64   `json:"dropped_items,omitempty"`
	Transitions     int     `json:"transitions,omitempty"`
}

// Summary digests the run into a RunSummary.
func (r *Result) Summary() RunSummary {
	return RunSummary{
		Status:          r.Status.String(),
		Reason:          r.Reason,
		Elements:        r.Elements(),
		CellsPerSec:     r.ElementsPerSecond(),
		EDTMillis:       float64(r.EDTTime) / 1e6,
		RefineMillis:    float64(r.RefineTime) / 1e6,
		TotalMillis:     float64(r.TotalTime) / 1e6,
		Threads:         r.Stats.Threads,
		Inserts:         r.Stats.Inserts,
		Removals:        r.Stats.Removals,
		Rollbacks:       r.Stats.Rollbacks,
		RecoveredPanics: r.Stats.RecoveredPanics,
		DroppedItems:    r.Stats.DroppedItems,
		Transitions:     len(r.Transitions),
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
	res.Transitions = r.transitions
	res.Reason = r.reason
	switch {
	case r.failed.Load():
		res.Status = StatusAborted
	case len(r.transitions) > 0 || r.recoveredPanics.Load() > 0 || r.callbackPanics.Load() > 0:
		res.Status = StatusDegraded
	default:
		res.Status = StatusCompleted
	}

	s := &res.Stats
	s.Threads = r.cfg.Workers
	s.RecoveredPanics = r.recoveredPanics.Load()
	s.DroppedItems = r.droppedItems.Load()
	s.CallbackPanics = r.callbackPanics.Load()
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
	// survived refinement (Section 4.3's on-the-fly bookkeeping).
	for _, t := range r.threads {
		for _, h := range t.inside {
			if !r.mesh.Cells.At(h).Dead() {
				res.Final = append(res.Final, h)
			}
		}
	}
}
