// Ablation and session benchmarks. The paper's tables and figures are
// regenerated by cmd/experiments (internal/experiments), the harness
// behind EXPERIMENTS.md and results/.
//
//	go test -run '^$' -bench=. -benchmem
package pi2m

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/img"
)

const benchScale = 64

// BenchmarkAblation_Removals measures the cost/benefit of rule R6
// (DESIGN.md ablation: the paper's removals are its key novelty).
func BenchmarkAblation_Removals(b *testing.B) {
	im := img.TorusPhantom(benchScale)
	for _, disable := range []bool{false, true} {
		name := "withR6"
		if disable {
			name = "withoutR6"
		}
		b.Run(name, func(b *testing.B) {
			var elements, removals int64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Image:           im,
					Workers:         2,
					DisableRemovals: disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				elements += int64(res.Elements())
				removals += res.Stats.Removals
			}
			b.ReportMetric(float64(elements)/float64(b.N), "elements/run")
			b.ReportMetric(float64(removals)/float64(b.N), "removals/run")
		})
	}
}

// BenchmarkAblation_QualityVsSolver quantifies the paper's motivating
// claim — "the robustness and accuracy of the solver rely on the
// quality of the mesh" — by solving the same Poisson problem on the
// PI2M quality mesh and on a degraded copy (interior vertices jittered
// toward element inversion, as an unguarded mesh-processing step would
// leave them): the conditioning gap shows up as CG iterations.
func BenchmarkAblation_QualityVsSolver(b *testing.B) {
	im := img.SpherePhantom(48)
	res, err := core.Run(core.Config{Image: im, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	snap := res.Snapshot()
	exterior, _ := snap.ExteriorVertices()

	build := func(verts []geom.Vec3) *fem.System {
		dir := map[int32]float64{}
		for _, v := range exterior {
			dir[v] = verts[v].Z
		}
		mesh := &core.MeshSnapshot{Verts: verts, Cells: snap.Cells}
		sys, err := fem.Assemble(&fem.Problem{Mesh: mesh, Dirichlet: dir})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}

	// Degrade: pull every interior vertex most of the way toward one of
	// its cells' opposite faces (guarded against full inversion).
	degraded := append([]geom.Vec3(nil), snap.Verts...)
	onBoundary := make([]bool, len(degraded))
	for _, v := range exterior {
		onBoundary[v] = true
	}
	rng := rand.New(rand.NewSource(4))
	for _, cell := range snap.Cells {
		v := cell[rng.Intn(4)]
		if onBoundary[v] {
			continue
		}
		// Move toward the centroid of the cell's other three vertices.
		var c geom.Vec3
		n := 0
		for _, u := range cell {
			if u != v {
				c = c.Add(degraded[u])
				n++
			}
		}
		c = c.Scale(1 / float64(n))
		trial := degraded[v].Lerp(c, 0.95)
		old := degraded[v]
		degraded[v] = trial
		// Keep validity: revert if any cell inverted.
		ok := true
		for _, cl := range snap.Cells {
			if geom.TetraVolume(degraded[cl[0]], degraded[cl[1]], degraded[cl[2]], degraded[cl[3]]) <= 0 {
				ok = false
				break
			}
		}
		if !ok {
			degraded[v] = old
		}
	}

	for _, variant := range []struct {
		name  string
		verts []geom.Vec3
	}{{"quality", snap.Verts}, {"degraded", degraded}} {
		sys := build(variant.verts)
		b.Run(variant.name, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				sol, err := sys.Solve(1e-9, 100*sys.N)
				if err != nil {
					b.Fatal(err)
				}
				iters += sol.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "cg-iters")
		})
	}
}

// BenchmarkSession_ColdVsWarm measures the session tentpole: the
// per-run cost of a fresh session (allocate everything) against a
// reused one (reset-and-reuse arenas, grids, EDT buffers and cached
// transform). CHANGES.md (PR 2) records this pair when it landed; the
// traced benchmark run (go run ./bench -trace 1) tracks it now.
func BenchmarkSession_ColdVsWarm(b *testing.B) {
	phantoms := []struct {
		name string
		im   *img.Image
	}{
		{"sphere", img.SpherePhantom(32)},
		{"torus", img.TorusPhantom(32)},
		{"abdominal", experiments.Abdominal(48)},
	}
	for _, ph := range phantoms {
		ph := ph
		b.Run(ph.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			var elements int64
			for i := 0; i < b.N; i++ {
				s, err := NewSession(WithThreads(2))
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(nil, ph.im)
				if err != nil {
					b.Fatal(err)
				}
				elements += int64(res.Elements())
				s.Close()
			}
			b.ReportMetric(float64(elements)/b.Elapsed().Seconds(), "cells/s")
		})
		b.Run(ph.name+"/warm", func(b *testing.B) {
			s, err := NewSession(WithThreads(2))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(nil, ph.im); err != nil {
				b.Fatal(err) // prime the session outside the timer
			}
			b.ReportAllocs()
			b.ResetTimer()
			var elements int64
			for i := 0; i < b.N; i++ {
				res, err := s.Run(nil, ph.im)
				if err != nil {
					b.Fatal(err)
				}
				elements += int64(res.Elements())
			}
			b.ReportMetric(float64(elements)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
