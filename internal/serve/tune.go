package serve

import (
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/sizing"
	"repro/internal/wire"
)

// hasTuning reports whether the spec overrides anything on the session
// template (format and timeout are serving-side, not tuning).
func hasTuning(m *wire.MeshSpec) bool {
	return m.Delta > 0 || m.MaxElements > 0 || m.MaxRadiusEdge > 0 ||
		m.MinFacetAngle > 0 || m.Size != nil || m.DeltaScale > 1
}

// tune compiles the spec into the per-run hook RunTuned applies over
// the session template; nil when the spec has no overrides (the common
// path runs the template verbatim). The size function is compiled
// inside the hook because PerLabel needs the run's attached image.
func tune(m *wire.MeshSpec) func(*core.Config) {
	if !hasTuning(m) {
		return nil
	}
	spec := *m // the hook outlives the request; copy the knobs
	return func(cfg *core.Config) {
		if spec.Delta > 0 {
			cfg.Delta = spec.Delta
		}
		if spec.MaxElements > 0 {
			cfg.MaxElements = spec.MaxElements
		}
		if spec.MaxRadiusEdge > 0 {
			cfg.MaxRadiusEdge = spec.MaxRadiusEdge
		}
		if spec.MinFacetAngle > 0 {
			cfg.MinFacetAngle = spec.MinFacetAngle
		}
		if spec.Size != nil {
			cfg.SizeFunc = core.SizeFunc(compileSize(spec.Size, cfg.Image))
		}
		if spec.DeltaScale > 1 {
			// Applied last, over whatever δ the run would otherwise use:
			// the explicit override above, the template's value, or the
			// auto default (2× min voxel spacing) resolved here because
			// the engine's own resolution happens after this hook.
			d := cfg.Delta
			if d <= 0 && cfg.Image != nil {
				d = 2 * cfg.Image.MinSpacing()
			}
			if d > 0 {
				cfg.Delta = d * spec.DeltaScale
			}
		}
	}
}

// compileSize builds the sizing.Func the spec describes; constraints
// compose by pointwise minimum (every bound holds).
func compileSize(sz *wire.SizeSpec, im *img.Image) sizing.Func {
	var fs []sizing.Func
	if len(sz.PerLabel) > 0 && im != nil {
		byLabel := make(map[img.Label]float64, len(sz.PerLabel))
		for k, h := range sz.PerLabel {
			l, _ := strconv.Atoi(k)
			byLabel[img.Label(l)] = h
		}
		def := sz.Default
		if def <= 0 {
			def = math.Inf(1)
		}
		fs = append(fs, sizing.PerLabel(im, byLabel, def))
	}
	for _, b := range sz.Balls {
		hOut := b.HOut
		if hOut <= 0 {
			hOut = math.Inf(1)
		}
		fs = append(fs, sizing.Ball(
			geom.Vec3{X: b.Center[0], Y: b.Center[1], Z: b.Center[2]}, b.R, b.H, hOut))
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return sizing.Min(fs...)
}
