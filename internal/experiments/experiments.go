// Package experiments reproduces every table and figure of the
// paper's evaluation (Sections 5-7) at host scale. Each experiment
// returns typed rows plus a formatter that prints the same columns the
// paper reports; cmd/experiments drives them from the command line.
//
// Scale. The paper ran on Blacklight (up to 256 cores, 150M-element
// meshes). This host runs the same code paths with the thread counts
// mapped onto a modeled Blacklight topology and phantom images sized
// so a run takes seconds; the *shape* of each result (which scheme
// wins, where the trends bend) is the reproduction target, not the
// absolute numbers. See EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/img"
)

// Params scales the experiments to the host.
type Params struct {
	// ImageScale is the base phantom edge length in voxels.
	ImageScale int
	// Threads are the worker counts to sweep.
	Threads []int
	// Repeats averages timings over this many runs (default 1).
	Repeats int
}

func (p Params) withDefaults() Params {
	if p.ImageScale == 0 {
		p.ImageScale = 96
	}
	if len(p.Threads) == 0 {
		p.Threads = []int{1, 2, 4, 8}
	}
	if p.Repeats == 0 {
		p.Repeats = 1
	}
	return p
}

// Abdominal builds the abdominal-atlas phantom at the given scale
// (stands in for the IRCAD image of Table 3, 512x512x219).
func Abdominal(scale int) *img.Image {
	return img.AbdominalPhantom(scale, scale, 2*scale/3)
}

// Knee builds the knee-atlas phantom (SPL, 512x512x119).
func Knee(scale int) *img.Image {
	return img.KneePhantom(scale, scale, scale)
}

// HeadNeck builds the head-neck-atlas phantom (SPL, 255x255x229).
func HeadNeck(scale int) *img.Image {
	return img.HeadNeckPhantom(scale, scale, scale)
}

// topology is the Blacklight-shaped machine model sized for the
// largest thread count of the sweep.
func (p Params) topology() balance.Topology { return balance.ForWorkers(maxInt(p.Threads)) }

// run executes one PI2M configuration, averaging over p.Repeats. A zero
// delta selects the core default.
func (p Params) run(im *img.Image, topo balance.Topology, workers int, cmName, balName string, delta float64) (*core.Result, time.Duration, error) {
	last, avg, _, err := p.runStd(im, topo, workers, cmName, balName, delta)
	return last, avg, err
}

// runStd is run, also reporting the sample standard deviation of the
// run times (the paper reports timing stddev in Section 6.3).
func (p Params) runStd(im *img.Image, topo balance.Topology, workers int, cmName, balName string, delta float64) (*core.Result, time.Duration, time.Duration, error) {
	var last *core.Result
	var times []float64
	for i := 0; i < p.Repeats; i++ {
		res, err := core.Run(core.Config{
			Image:             im,
			Workers:           workers,
			ContentionManager: cmName,
			Balancer:          balName,
			Delta:             delta,
			Topology:          topo,
		})
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, res.TotalTime.Seconds())
		last = res
		if res.Livelocked {
			break
		}
	}
	var mean float64
	for _, t := range times {
		mean += t
	}
	mean /= float64(len(times))
	var varsum float64
	for _, t := range times {
		varsum += (t - mean) * (t - mean)
	}
	std := 0.0
	if len(times) > 1 {
		std = math.Sqrt(varsum / float64(len(times)-1))
	}
	return last, time.Duration(mean * float64(time.Second)), time.Duration(std * float64(time.Second)), nil
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// ---------------------------------------------------------------------
// Table 1: contention manager comparison.

// Table1Row is one column of paper Table 1 for a given thread count.
type Table1Row struct {
	CM             string
	Threads        int
	Time           time.Duration
	Rollbacks      int64
	ContentionSecs float64
	LoadBalSecs    float64
	RollbackSecs   float64
	TotalOverhead  float64
	Speedup        float64
	Livelocked     bool
	Elements       int
}

// Table1 compares the four contention managers on the abdominal
// phantom (paper Section 5.5). The single-threaded Local-CM run is the
// speedup baseline, as in the paper.
func Table1(p Params) ([]Table1Row, error) {
	p = p.withDefaults()
	im := Abdominal(p.ImageScale)

	_, baseTime, err := p.run(im, p.topology(), 1, "local", "hws", 0)
	if err != nil {
		return nil, err
	}

	var rows []Table1Row
	for _, threads := range p.Threads {
		for _, cmName := range []string{"aggressive", "random", "global", "local"} {
			res, avg, err := p.run(im, p.topology(), threads, cmName, "hws", 0)
			if err != nil {
				return nil, err
			}
			row := Table1Row{
				CM:             res.Config.ContentionManager,
				Threads:        threads,
				Time:           avg,
				Rollbacks:      res.Stats.Rollbacks,
				ContentionSecs: secs(res.Stats.ContentionNs),
				LoadBalSecs:    secs(res.Stats.LoadBalanceNs),
				RollbackSecs:   secs(res.Stats.RollbackNs),
				TotalOverhead:  secs(res.Stats.TotalOverheadNs()),
				Livelocked:     res.Livelocked,
				Elements:       res.Elements(),
			}
			if !res.Livelocked && avg > 0 {
				row.Speedup = baseTime.Seconds() / avg.Seconds()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's Table 1 layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	byThreads := map[int][]Table1Row{}
	var order []int
	for _, r := range rows {
		if len(byThreads[r.Threads]) == 0 {
			order = append(order, r.Threads)
		}
		byThreads[r.Threads] = append(byThreads[r.Threads], r)
	}
	for _, th := range order {
		group := byThreads[th]
		fmt.Fprintf(&b, "Table 1 — contention managers, %d threads\n", th)
		fmt.Fprintf(&b, "%-28s", "")
		for _, r := range group {
			fmt.Fprintf(&b, "%14s", r.CM)
		}
		b.WriteByte('\n')
		line := func(label string, f func(Table1Row) string) {
			fmt.Fprintf(&b, "%-28s", label)
			for _, r := range group {
				fmt.Fprintf(&b, "%14s", f(r))
			}
			b.WriteByte('\n')
		}
		na := func(r Table1Row, s string) string {
			if r.Livelocked {
				return "n/a"
			}
			return s
		}
		line("time (secs)", func(r Table1Row) string { return na(r, fmt.Sprintf("%.2f", r.Time.Seconds())) })
		line("rollbacks", func(r Table1Row) string { return na(r, fmt.Sprintf("%d", r.Rollbacks)) })
		line("contention overhead (secs)", func(r Table1Row) string { return na(r, fmt.Sprintf("%.3f", r.ContentionSecs)) })
		line("load balance overhead", func(r Table1Row) string { return na(r, fmt.Sprintf("%.3f", r.LoadBalSecs)) })
		line("rollback overhead (secs)", func(r Table1Row) string { return na(r, fmt.Sprintf("%.3f", r.RollbackSecs)) })
		line("total overhead (secs)", func(r Table1Row) string { return na(r, fmt.Sprintf("%.3f", r.TotalOverhead)) })
		line("speedup", func(r Table1Row) string { return na(r, fmt.Sprintf("%.2f", r.Speedup)) })
		line("livelock", func(r Table1Row) string {
			if r.Livelocked {
				return "yes"
			}
			switch r.CM {
			case "global", "local":
				return "not possible"
			}
			return "no"
		})
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 5: strong scaling, RWS vs HWS.

// Fig5Row is one thread count of the strong-scaling study.
type Fig5Row struct {
	Threads int

	TimeRWS, TimeHWS       time.Duration
	SpeedupRWS, SpeedupHWS float64

	InterBladeRWS, InterBladeHWS int64
	TransfersRWS, TransfersHWS   int64

	// HWS per-thread overhead breakdown (Figure 5c).
	ContentionSecs float64
	LoadBalSecs    float64
	RollbackSecs   float64
}

// Fig5 runs the strong-scaling comparison of the two load balancers on
// a fixed abdominal phantom (paper Section 6.2).
func Fig5(p Params) ([]Fig5Row, error) {
	p = p.withDefaults()
	// A fine-grained topology (2 cores/socket, 2 sockets/blade), so
	// host-scale thread counts already span several blades and the
	// RWS/HWS locality difference is visible — the paper's 176 threads
	// spanned 11 Blacklight blades.
	blades := (maxInt(p.Threads) + 3) / 4
	if blades < 2 {
		blades = 2
	}
	topo := balance.Topology{CoresPerSocket: 2, SocketsPerBlade: 2, Blades: blades}
	im := Abdominal(p.ImageScale)

	_, t1, err := p.run(im, topo, 1, "local", "hws", 0)
	if err != nil {
		return nil, err
	}

	var rows []Fig5Row
	for _, threads := range p.Threads {
		rws, tRWS, err := p.run(im, topo, threads, "local", "rws", 0)
		if err != nil {
			return nil, err
		}
		hws, tHWS, err := p.run(im, topo, threads, "local", "hws", 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{
			Threads:        threads,
			TimeRWS:        tRWS,
			TimeHWS:        tHWS,
			SpeedupRWS:     t1.Seconds() / tRWS.Seconds(),
			SpeedupHWS:     t1.Seconds() / tHWS.Seconds(),
			InterBladeRWS:  rws.Stats.Transfers.InterBlade,
			InterBladeHWS:  hws.Stats.Transfers.InterBlade,
			TransfersRWS:   rws.Stats.Transfers.Total(),
			TransfersHWS:   hws.Stats.Transfers.Total(),
			ContentionSecs: secs(hws.Stats.ContentionNs) / float64(threads),
			LoadBalSecs:    secs(hws.Stats.LoadBalanceNs) / float64(threads),
			RollbackSecs:   secs(hws.Stats.RollbackNs) / float64(threads),
		})
	}
	return rows, nil
}

// FormatFig5 renders the three panels of Figure 5 as tables.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Figure 5a — strong scaling speedup (RWS vs HWS)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %12s\n", "threads", "time RWS", "time HWS", "speedup RWS", "speedup HWS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %12.2f %12.2f %12.2f %12.2f\n",
			r.Threads, r.TimeRWS.Seconds(), r.TimeHWS.Seconds(), r.SpeedupRWS, r.SpeedupHWS)
	}
	b.WriteString("\nFigure 5b — work-transfer locality (inter-blade counts)\n")
	fmt.Fprintf(&b, "%8s %16s %16s %16s %16s\n", "threads", "RWS inter-blade", "HWS inter-blade", "RWS total", "HWS total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %16d %16d %16d %16d\n",
			r.Threads, r.InterBladeRWS, r.InterBladeHWS, r.TransfersRWS, r.TransfersHWS)
	}
	b.WriteString("\nFigure 5c — HWS overhead breakdown per thread (secs)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s\n", "threads", "contention", "load bal", "rollback")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %12.4f %12.4f %12.4f\n",
			r.Threads, r.ContentionSecs, r.LoadBalSecs, r.RollbackSecs)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table 4: weak scaling.

// Table4Row is one thread count of the weak-scaling study.
type Table4Row struct {
	Threads        int
	Elements       int
	Time           time.Duration
	TimeStdDev     time.Duration // across Repeats (paper Section 6.3)
	ElementsPerSec float64
	Speedup        float64
	Efficiency     float64
	OverheadSecs   float64 // per thread
}

// Table4 runs the weak-scaling study (paper Section 6.3): the problem
// size grows with the thread count by shrinking δ as n^(-1/3), so each
// thread keeps an approximately constant number of elements. input
// selects the phantom: "abdominal" (Table 4a) or "knee" (Table 4b).
func Table4(p Params, input string) ([]Table4Row, error) {
	p = p.withDefaults()
	var im *img.Image
	switch input {
	case "abdominal", "":
		im = Abdominal(p.ImageScale)
	case "knee":
		im = Knee(p.ImageScale)
	case "headneck":
		im = HeadNeck(p.ImageScale)
	default:
		return nil, fmt.Errorf("experiments: unknown input %q", input)
	}
	delta1 := 2 * im.MinSpacing()

	var rows []Table4Row
	var base Table4Row
	for i, threads := range p.Threads {
		delta := delta1 * math.Pow(float64(threads), -1.0/3.0)
		res, avg, std, err := p.runStd(im, p.topology(), threads, "local", "hws", delta)
		if err != nil {
			return nil, err
		}
		row := Table4Row{
			Threads:        threads,
			Elements:       res.Elements(),
			Time:           avg,
			TimeStdDev:     std,
			ElementsPerSec: float64(res.Elements()) / avg.Seconds(),
			OverheadSecs:   secs(res.Stats.TotalOverheadNs()) / float64(threads),
		}
		if i == 0 {
			base = row
			row.Speedup = 1
			row.Efficiency = 1
		} else {
			// Paper: speedup = Elements(n)*Time(1) / (Time(n)*Elements(1)).
			row.Speedup = float64(row.Elements) * base.Time.Seconds() /
				(row.Time.Seconds() * float64(base.Elements))
			row.Efficiency = row.Speedup / (float64(threads) / float64(base.Threads))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders the weak-scaling table.
func FormatTable4(rows []Table4Row, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 — weak scaling (%s)\n", title)
	fmt.Fprintf(&b, "%-24s", "#Threads")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d", r.Threads)
	}
	b.WriteByte('\n')
	line := func(label string, f func(Table4Row) string) {
		fmt.Fprintf(&b, "%-24s", label)
		for _, r := range rows {
			fmt.Fprintf(&b, "%12s", f(r))
		}
		b.WriteByte('\n')
	}
	line("#Elements", func(r Table4Row) string { return fmt.Sprintf("%.2e", float64(r.Elements)) })
	line("Time (secs)", func(r Table4Row) string { return fmt.Sprintf("%.2f", r.Time.Seconds()) })
	line("Time stddev (secs)", func(r Table4Row) string { return fmt.Sprintf("%.3f", r.TimeStdDev.Seconds()) })
	line("Elements per second", func(r Table4Row) string { return fmt.Sprintf("%.2e", r.ElementsPerSec) })
	line("Speedup", func(r Table4Row) string { return fmt.Sprintf("%.2f", r.Speedup) })
	line("Efficiency", func(r Table4Row) string { return fmt.Sprintf("%.2f", r.Efficiency) })
	line("Overhead secs/thread", func(r Table4Row) string { return fmt.Sprintf("%.3f", r.OverheadSecs) })
	return b.String()
}

// ---------------------------------------------------------------------
// Table 5: hyper-threading (oversubscription).

// Table5Row compares an oversubscribed run (2 workers per modeled
// core) against the corresponding Table 4 row.
type Table5Row struct {
	Cores          int
	Elements       int
	Time           time.Duration
	ElementsPerSec float64
	// Speedup is relative to the non-oversubscribed run on the same
	// core count, as in the paper.
	Speedup      float64
	OverheadSecs float64
}

// Table5 reruns the Table 4a weak-scaling points with two workers per
// modeled core (the paper's hyper-threading study; hardware SMT
// counters are not observable from Go, so the reproduction reports the
// timing columns).
func Table5(p Params) ([]Table5Row, error) {
	p = p.withDefaults()
	base, err := Table4(p, "abdominal")
	if err != nil {
		return nil, err
	}
	im := Abdominal(p.ImageScale)
	delta1 := 2 * im.MinSpacing()
	var rows []Table5Row
	for i, cores := range p.Threads {
		delta := delta1 * math.Pow(float64(cores), -1.0/3.0)
		res, avg, err := p.run(im, p.topology(), 2*cores, "local", "hws", delta)
		if err != nil {
			return nil, err
		}
		row := Table5Row{
			Cores:          cores,
			Elements:       res.Elements(),
			Time:           avg,
			ElementsPerSec: float64(res.Elements()) / avg.Seconds(),
			Speedup:        base[i].Time.Seconds() / avg.Seconds(),
			OverheadSecs:   secs(res.Stats.TotalOverheadNs()) / float64(2*cores),
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable5 renders the hyper-threading table.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5 — 2x oversubscription (hyper-threading model)\n")
	fmt.Fprintf(&b, "%-24s", "#Cores")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d", r.Cores)
	}
	b.WriteByte('\n')
	line := func(label string, f func(Table5Row) string) {
		fmt.Fprintf(&b, "%-24s", label)
		for _, r := range rows {
			fmt.Fprintf(&b, "%12s", f(r))
		}
		b.WriteByte('\n')
	}
	line("#Elements", func(r Table5Row) string { return fmt.Sprintf("%.2e", float64(r.Elements)) })
	line("Time (secs)", func(r Table5Row) string { return fmt.Sprintf("%.2f", r.Time.Seconds()) })
	line("Elements per second", func(r Table5Row) string { return fmt.Sprintf("%.2e", r.ElementsPerSec) })
	line("Speedup vs 1x", func(r Table5Row) string { return fmt.Sprintf("%.2f", r.Speedup) })
	line("Overhead secs/thread", func(r Table5Row) string { return fmt.Sprintf("%.3f", r.OverheadSecs) })
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 6: overhead timeline.

// Fig6 runs the maximum-thread configuration with timeline sampling
// and returns the cumulative wasted-seconds curve (paper Figure 6).
func Fig6(p Params) ([]core.TimelinePoint, error) {
	p = p.withDefaults()
	im := Abdominal(p.ImageScale)
	res, err := core.Run(core.Config{
		Image:             im,
		Workers:           maxInt(p.Threads),
		ContentionManager: "local",
		Balancer:          "hws",
		TimelineSample:    20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	return res.Timeline, nil
}

// FormatFig6Threads renders the timeline of a run on threads workers
// as (wall secs, cumulative overhead secs) pairs, followed by the
// useful-work fraction the paper derives from the same curve ("73% of
// the time, all 176 threads were doing useful work" during its Phase 1).
func FormatFig6Threads(points []core.TimelinePoint, threads int) string {
	var b strings.Builder
	b.WriteString("Figure 6 — cumulative overhead vs wall time\n")
	fmt.Fprintf(&b, "%12s %20s\n", "wall (s)", "wasted thread-secs")
	for _, pt := range points {
		fmt.Fprintf(&b, "%12.3f %20.4f\n", pt.Wall.Seconds(), secs(pt.OverheadNs))
	}
	if len(points) > 0 {
		last := points[len(points)-1]
		total := float64(threads) * last.Wall.Seconds()
		if total > 0 {
			fmt.Fprintf(&b, "useful-work fraction: %.1f%% of %d x %.2fs\n",
				100*(1-secs(last.OverheadNs)/total), threads, last.Wall.Seconds())
		}
	}
	return b.String()
}
