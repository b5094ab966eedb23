// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure (Sections 5-7). Custom metrics carry the columns
// the paper reports (element rates, rollbacks, overhead seconds,
// transfer counts); EXPERIMENTS.md interprets them against the paper.
//
//	go test -bench=. -benchmem
//
// The benchmarks use reduced phantom scales so the full suite runs in
// minutes; cmd/experiments runs the same studies at larger scales.
package pi2m

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/meshio"
	"repro/internal/quality"
	"repro/internal/smooth"
)

const benchScale = 64

// BenchmarkTable1_CM compares the four contention managers (paper
// Table 1): time, rollbacks, and overhead seconds per scheme.
func BenchmarkTable1_CM(b *testing.B) {
	im := experiments.Abdominal(benchScale)
	for _, cmName := range []string{"aggressive", "random", "global", "local"} {
		b.Run(cmName, func(b *testing.B) {
			var rollbacks, elements int64
			var overhead float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Image:             im,
					Workers:           4,
					ContentionManager: cmName,
					LivelockTimeout:   60 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Livelocked {
					b.Skip("livelocked (expected for aggressive/random at scale)")
				}
				rollbacks += res.Stats.Rollbacks
				elements += int64(res.Elements())
				overhead += float64(res.Stats.TotalOverheadNs()) / 1e9
			}
			b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks/run")
			b.ReportMetric(overhead/float64(b.N), "overhead-s/run")
			b.ReportMetric(float64(elements)/float64(b.N), "elements/run")
		})
	}
}

// BenchmarkFig5_StrongScaling compares RWS and HWS across thread
// counts (paper Figure 5): wall time and inter-blade transfers.
func BenchmarkFig5_StrongScaling(b *testing.B) {
	im := experiments.Abdominal(benchScale)
	for _, bal := range []string{"rws", "hws"} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(bal+"/"+itoa(workers), func(b *testing.B) {
				var interBlade, total int64
				for i := 0; i < b.N; i++ {
					res, err := core.Run(core.Config{
						Image:           im,
						Workers:         workers,
						Balancer:        bal,
						LivelockTimeout: 60 * time.Second,
					})
					if err != nil {
						b.Fatal(err)
					}
					interBlade += res.Stats.Transfers.InterBlade
					total += res.Stats.Transfers.Total()
				}
				b.ReportMetric(float64(interBlade)/float64(b.N), "interblade/run")
				b.ReportMetric(float64(total)/float64(b.N), "transfers/run")
			})
		}
	}
}

// BenchmarkTable4_WeakScaling grows the problem with the thread count
// via δ(n) = δ1 n^(-1/3) (paper Table 4): elements per second is the
// headline metric.
func BenchmarkTable4_WeakScaling(b *testing.B) {
	for _, input := range []string{"abdominal", "knee"} {
		im := map[string]*img.Image{
			"abdominal": experiments.Abdominal(benchScale),
			"knee":      experiments.Knee(benchScale),
		}[input]
		delta1 := 2 * im.MinSpacing()
		for _, workers := range []int{1, 2, 4} {
			b.Run(input+"/"+itoa(workers), func(b *testing.B) {
				delta := delta1 * math.Pow(float64(workers), -1.0/3.0)
				var elements int64
				var secs float64
				for i := 0; i < b.N; i++ {
					res, err := core.Run(core.Config{
						Image:           im,
						Workers:         workers,
						Delta:           delta,
						LivelockTimeout: 60 * time.Second,
					})
					if err != nil {
						b.Fatal(err)
					}
					elements += int64(res.Elements())
					secs += res.TotalTime.Seconds()
				}
				b.ReportMetric(float64(elements)/secs, "elements/s")
				b.ReportMetric(float64(elements)/float64(b.N), "elements/run")
			})
		}
	}
}

// BenchmarkTable5_HyperThreading oversubscribes two workers per
// modeled core (paper Table 5).
func BenchmarkTable5_HyperThreading(b *testing.B) {
	im := experiments.Abdominal(benchScale)
	for _, cores := range []int{1, 2, 4} {
		b.Run(itoa(cores)+"cores", func(b *testing.B) {
			var elements int64
			var secs, overhead float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Image:           im,
					Workers:         2 * cores,
					LivelockTimeout: 60 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				elements += int64(res.Elements())
				secs += res.TotalTime.Seconds()
				overhead += float64(res.Stats.TotalOverheadNs()) / 1e9 / float64(2*cores)
			}
			b.ReportMetric(float64(elements)/secs, "elements/s")
			b.ReportMetric(overhead/float64(b.N), "overhead-s/thread")
		})
	}
}

// BenchmarkFig6_Timeline runs the overhead-timeline configuration
// (paper Figure 6) and reports the final cumulative overhead.
func BenchmarkFig6_Timeline(b *testing.B) {
	im := experiments.Abdominal(benchScale)
	var overhead float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Image:           im,
			Workers:         4,
			TimelineSample:  10 * time.Millisecond,
			LivelockTimeout: 60 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if n := len(res.Timeline); n > 0 {
			overhead += float64(res.Timeline[n-1].OverheadNs) / 1e9
		}
	}
	b.ReportMetric(overhead/float64(b.N), "final-overhead-s")
}

// BenchmarkTable6_SingleThread compares single-threaded PI2M against
// the CGAL and TetGen stand-ins (paper Table 6): tetrahedra per
// second.
func BenchmarkTable6_SingleThread(b *testing.B) {
	for _, input := range []string{"knee", "headneck"} {
		im := map[string]*img.Image{
			"knee":     experiments.Knee(benchScale),
			"headneck": experiments.HeadNeck(benchScale),
		}[input]

		b.Run(input+"/PI2M", func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Image:           im,
					Workers:         1,
					LivelockTimeout: 60 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				rate += res.ElementsPerSecond()
			}
			b.ReportMetric(rate/float64(b.N), "tets/s")
		})
		b.Run(input+"/SeqMesher", func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := baseline.SeqMesh(im, baseline.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rate += res.ElementsPerSecond()
			}
			b.ReportMetric(rate/float64(b.N), "tets/s")
		})
		b.Run(input+"/PLCMesher", func(b *testing.B) {
			// The PLC input is PI2M's recovered boundary, built once.
			pi, err := core.Run(core.Config{Image: im, Workers: 1, LivelockTimeout: 60 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			tris := quality.BoundaryTriangles(pi.Mesh, pi.Final, im)
			b.ResetTimer()
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := baseline.PLCMesh(im, tris, baseline.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rate += res.ElementsPerSecond()
			}
			b.ReportMetric(rate/float64(b.N), "tets/s")
		})
	}
}

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
					LivelockTimeout: 60 * time.Second,
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

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + itoa(n%10)
}

// BenchmarkAblation_QualityVsSolver quantifies the paper's motivating
// claim — "the robustness and accuracy of the solver rely on the
// quality of the mesh" — by solving the same Poisson problem on the
// PI2M quality mesh and on a degraded copy (interior vertices jittered
// toward element inversion, as an unguarded mesh-processing step would
// leave them): the conditioning gap shows up as CG iterations.
func BenchmarkAblation_QualityVsSolver(b *testing.B) {
	im := img.SpherePhantom(48)
	res, err := core.Run(core.Config{Image: im, Workers: 1, LivelockTimeout: 60 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	ext := smooth.Extract(res.Mesh, res.Final, im)

	build := func(verts []geom.Vec3) *fem.System {
		raw := &meshio.RawMesh{Verts: verts, Cells: ext.Cells}
		dir := map[int32]float64{}
		for _, tr := range ext.BoundaryTris {
			for _, v := range tr {
				dir[v] = verts[v].Z
			}
		}
		sys, err := fem.Assemble(&fem.Problem{Mesh: raw, Dirichlet: dir})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}

	// Degrade: pull every interior vertex most of the way toward one of
	// its cells' opposite faces (guarded against full inversion).
	degraded := append([]geom.Vec3(nil), ext.Verts...)
	onBoundary := make([]bool, len(degraded))
	for _, tr := range ext.BoundaryTris {
		for _, v := range tr {
			onBoundary[v] = true
		}
	}
	rng := rand.New(rand.NewSource(4))
	for _, cell := range ext.Cells {
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
		for _, cl := range ext.Cells {
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
	}{{"quality", ext.Verts}, {"degraded", degraded}} {
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

// BenchmarkAblation_Tuning sweeps the paper's tuned constants — the
// donation threshold ("we set that threshold equal to 5, since it
// yielded the best results", §4.4) and s+ ("the value for s+ is set to
// 10", §5.3) — so the tuning claims can be re-examined on any host.
func BenchmarkAblation_Tuning(b *testing.B) {
	im := experiments.Abdominal(benchScale)
	for _, donate := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("donate%d", donate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.Config{
					Image:           im,
					Workers:         4,
					DonateThreshold: donate,
					LivelockTimeout: 60 * time.Second,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, sPlus := range []int{2, 10, 50} {
		b.Run(fmt.Sprintf("splus%d", sPlus), func(b *testing.B) {
			var rollbacks int64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Image:           im,
					Workers:         4,
					SuccessLimit:    sPlus,
					LivelockTimeout: 60 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				rollbacks += res.Stats.Rollbacks
			}
			b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks/run")
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
				s, err := NewSession(WithThreads(2), WithLivelockTimeout(time.Minute))
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
			s, err := NewSession(WithThreads(2), WithLivelockTimeout(time.Minute))
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
