// Package core implements PI2M itself: the parallel Delaunay
// image-to-mesh refinement algorithm of the paper (Sections 3-4). It
// drives the concurrent Delaunay kernel with the refinement rules
// R1-R6, per-thread Poor Element Lists, contention management,
// begging-list load balancing, and on-the-fly final-mesh extraction.
package core

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/balance"
	"repro/internal/cm"
	"repro/internal/geom"
	"repro/internal/img"
)

// SizeFunc is the user size function sf(.) of rule R5: an upper bound
// on the circumradius of tetrahedra whose circumcenter lies at the
// given point.
type SizeFunc func(geom.Vec3) float64

// Config parameterizes a PI2M run.
type Config struct {
	// Image is the segmented multi-label input (required).
	Image *img.Image

	// Delta is the δ sampling parameter (world units): target spacing
	// of isosurface samples, fidelity knob of Theorem 1, and the mesh
	// size control of the weak-scaling study. Default: 2x the minimum
	// voxel spacing.
	Delta float64

	// DeltaFunc optionally varies δ over space (paper Section 2:
	// "parts of the isosurface of high curvature can be meshed with
	// more elements"; surface density is user-controllable like the
	// volume density). Values are clamped to [Delta/4, Delta]; Delta
	// remains the coarse bound and the sparsity-grid resolution.
	DeltaFunc SizeFunc

	// MaxElements stops refinement early once the final mesh reaches
	// this many tetrahedra (0 = unlimited). The mesh remains valid;
	// quality/fidelity criteria may be unmet where refinement stopped.
	MaxElements int

	// SizeFunc is sf(.) of rule R5; nil means no size constraint
	// (quality rules only).
	SizeFunc SizeFunc

	// MaxRadiusEdge is the radius-edge ratio bound of rule R4
	// (default 2, the paper's provable bound).
	MaxRadiusEdge float64

	// MinFacetAngle is the boundary planar angle bound of rule R3 in
	// degrees (default 30).
	MinFacetAngle float64

	// Workers is the number of refinement threads (default
	// GOMAXPROCS).
	Workers int

	// Topology models the machine for the load balancer (default: a
	// Blacklight-shaped topology sized for Workers).
	Topology balance.Topology

	// ContentionManager selects the CM: "aggressive", "random",
	// "global", "local" (default "local").
	ContentionManager string

	// Balancer selects the begging-list organization: "rws" or "hws"
	// (default "hws").
	Balancer string

	// DisableRemovals turns off rule R6 (for ablation).
	DisableRemovals bool

	// LivelockTimeout aborts the run when no operation commits for
	// this long — the always-armed watchdog that detects
	// Aggressive-CM/Random-CM livelocks (Section 5.1) and would catch a
	// lost wake-up. Zero selects livelockTimeout (one minute); there is
	// no "off". The field stays only because the benchmark harness sets
	// it; it goes once that harness no longer does.
	LivelockTimeout time.Duration

	// TimelineSample enables the Figure 6 overhead timeline with the
	// given sampling period. Zero disables it.
	TimelineSample time.Duration

	// Progress, when non-nil, is called from a sampler goroutine every
	// progressSample with a running snapshot — for long-running CLI
	// feedback. It must be fast and thread-safe. A panic in it, as in
	// SizeFunc or DeltaFunc, aborts the run with the panic as its cause.
	Progress func(Progress)

	// progressSample is a test seam: zero selects the shipped constant.
	progressSample time.Duration
}

// Constants fixed for every run.
const (
	// donateThreshold is the minimum number of valid queued elements a
	// thread must hold before it may give work away (Section 4.4: the
	// paper "set that threshold equal to 5, since it yielded the best
	// results"). The paper counts classified poor elements; a PEL here
	// holds unclassified candidates, ~98 % of which are poor.
	donateThreshold = 5
	// progressSample is the period of the Progress callback.
	progressSample = 250 * time.Millisecond
	// livelockTimeout is the stall watchdog's window when
	// Config.LivelockTimeout is zero.
	livelockTimeout = time.Minute
)

// noSizeBound is the R5 bound meaning "no constraint".
var noSizeBound = math.Inf(1)

// Progress is a point-in-time snapshot of a running refinement.
type Progress struct {
	Wall       time.Duration
	Operations int64
	Elements   int64 // current final-mesh cell count (approximate)
}

// validate checks every knob that does not depend on the input image,
// so a Session can reject a bad template at construction time.
func (cfg Config) validate() error {
	for _, k := range []struct {
		name string
		v    float64
	}{{"Delta", cfg.Delta}, {"MaxRadiusEdge", cfg.MaxRadiusEdge}, {"MinFacetAngle", cfg.MinFacetAngle}} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return fmt.Errorf("core: %s %g is not finite", k.name, k.v)
		}
	}
	if cfg.Delta < 0 {
		return fmt.Errorf("core: negative Delta")
	}
	if cfg.MinFacetAngle < 0 {
		return fmt.Errorf("core: negative MinFacetAngle")
	}
	if cfg.MaxRadiusEdge != 0 && cfg.MaxRadiusEdge < 0.5 {
		return fmt.Errorf("core: MaxRadiusEdge %g below the provable bound", cfg.MaxRadiusEdge)
	}
	switch cfg.ContentionManager {
	case "", "aggressive", "random", "global", "local":
	default:
		return fmt.Errorf("core: unknown contention manager %q", cfg.ContentionManager)
	}
	switch cfg.Balancer {
	case "", "rws", "hws":
	default:
		return fmt.Errorf("core: unknown balancer %q", cfg.Balancer)
	}
	return nil
}

// withDefaults validates cfg and fills in defaults.
func (cfg Config) withDefaults() (Config, error) {
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	if cfg.Image == nil {
		return cfg, fmt.Errorf("core: Config.Image is required")
	}
	if cfg.Delta == 0 {
		cfg.Delta = 2 * cfg.Image.MinSpacing()
	}
	if cfg.MaxRadiusEdge == 0 {
		cfg.MaxRadiusEdge = 2
	}
	if cfg.MinFacetAngle == 0 {
		cfg.MinFacetAngle = 30
	}
	if cfg.SizeFunc == nil {
		cfg.SizeFunc = func(geom.Vec3) float64 { return noSizeBound }
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Topology == (balance.Topology{}) {
		cfg.Topology = balance.ForWorkers(cfg.Workers)
	}
	if cfg.progressSample <= 0 {
		cfg.progressSample = progressSample
	}
	if cfg.LivelockTimeout <= 0 {
		cfg.LivelockTimeout = livelockTimeout
	}
	if cfg.ContentionManager == "" {
		cfg.ContentionManager = "local"
	}
	if cfg.Balancer == "" {
		cfg.Balancer = "hws"
	}
	return cfg, nil
}

func (cfg Config) newCM(coord *cm.Coordinator) cm.Manager {
	switch cfg.ContentionManager {
	case "aggressive":
		return cm.NewAggressive()
	case "random":
		return cm.NewRandom(cfg.Workers, time.Millisecond)
	case "global":
		return cm.NewGlobal(cfg.Workers, coord)
	default:
		return cm.NewLocal(cfg.Workers, coord)
	}
}

func (cfg Config) newBalancer() balance.Balancer {
	if cfg.Balancer == "rws" {
		return balance.NewRWS(cfg.Workers, cfg.Topology)
	}
	return balance.NewHWS(cfg.Workers, cfg.Topology)
}
