package core_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/img"
)

// BenchmarkRefineW1 is the serve_miss workload's shape without the
// daemon: one warm Workers=1 session cycling the three atlas phantoms
// at the daemon workloads' scale (48), so every run pays the EDT and a
// full refinement on a restored mesh. One iteration is one run. Profile
// a kernel claim here (-cpuprofile) rather than through pi2md.
func BenchmarkRefineW1(b *testing.B) {
	images := []*img.Image{
		img.AbdominalPhantom(48, 48, 32),
		img.KneePhantom(48, 48, 48),
		img.HeadNeckPhantom(48, 48, 48),
	}
	s, err := core.NewSession(core.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	run := func(i int) *core.Result {
		res, err := s.Run(context.Background(), images[i%len(images)])
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != core.StatusCompleted {
			b.Fatalf("run %d: %v", i, res.Status)
		}
		return res
	}
	for i := range images {
		run(i) // warm the arenas and grids
	}
	var cells, ops, removals int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run(i)
		cells += int64(res.Elements())
		ops += res.Stats.Inserts + res.Stats.Removals
		removals += res.Stats.Removals
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(float64(ops)/float64(b.N), "ops/run")
	b.ReportMetric(float64(removals)/float64(b.N), "rem/run")
}

// BenchmarkRefineW2Fresh is the lib_mesh workload's shape in-process:
// one warm Workers=2 session cycling the three phantoms at scale 96,
// each run on an image freshly decoded from its NRRD encoding (outside
// the clock), so the session's transform cache — keyed by image pointer
// — never hits and every run pays the two-worker EDT and a speculative
// refinement on a shared mesh.
func BenchmarkRefineW2Fresh(b *testing.B) {
	var nrrd [3][]byte
	for i, im := range []*img.Image{
		img.AbdominalPhantom(96, 96, 64),
		img.KneePhantom(96, 96, 96),
		img.HeadNeckPhantom(96, 96, 96),
	} {
		var buf bytes.Buffer
		if err := img.WriteNRRD(&buf, im); err != nil {
			b.Fatal(err)
		}
		nrrd[i] = buf.Bytes()
	}
	s, err := core.NewSession(core.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	run := func(i int) *core.Result {
		b.StopTimer()
		im, err := img.ReadNRRD(bytes.NewReader(nrrd[i%len(nrrd)]))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.Run(context.Background(), im)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != core.StatusCompleted {
			b.Fatalf("run %d: %v", i, res.Status)
		}
		return res
	}
	for i := range nrrd {
		run(i) // warm the arenas and grids
	}
	var cells int64
	var edt time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run(i)
		cells += int64(res.Elements())
		edt += res.EDTTime
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(edt.Seconds()*1e3/float64(b.N), "edt-ms/run")
}
