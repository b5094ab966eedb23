//go:build linux

// Command bench is this repository's benchmark: four workloads measured
// in fixed-work blocks, and a traced in-process pass for the per-layer
// numbers. BENCHMARK.json at the
// module root names the metrics and their regression bounds; README.md
// beside this file explains every choice.
//
//	go run ./bench -workload lib_mesh     # or serve_miss, serve_hot, router_hot
//	go run ./bench                        # all four
//	go run ./bench -trace 1               # per-layer metrics, bench/out/trace.json
//	go run ./bench -repeat 5              # repeatability: two interleaved sets
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// Shape of a run: one set-up, then a number of fixed-work blocks that is
// fixed before the first one starts. A block's op count is a constant of
// its workload (workloads.go), sized to at most blockSeconds on a quiet
// reference box; -seconds only chooses how many blocks there are, so
// neither the work a run does nor the number of samples its metrics rest
// on depends on how fast the code under test is.
const (
	blockSeconds = 4
	minBlocks    = 3
)

func blockCount(seconds float64) int {
	return max(minBlocks, int(math.Round(seconds/blockSeconds)))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"ops_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"cpu_s_per_op", "s"},
	{"peak_rss_mb", "MiB"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "seed the op sequence and inputs derive from")
		seconds = flag.Float64("seconds", 20, "nominal length of the measured phase; fixes the number of ~4 s blocks up front")
		trace   = flag.Int("trace", 0, "1 = run the traced per-layer pass instead of a workload")
		repeat  = flag.Int("repeat", 0, "n > 0 = run two interleaved sets of n runs per workload and compare them")
	)
	flag.Parse()

	// A signal must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	switch {
	case *repeat > 0:
		os.Exit(runRepeat(*repeat, *seconds))
	case *trace != 0:
		res, err := runTrace(*seed)
		if err != nil {
			fail(err)
		}
		emit(res)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	var todo []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if slices.ContainsFunc(todo, func(w workload) bool { return w.name != "lib_mesh" }) {
		if err := buildDaemons(); err != nil {
			fail(err)
		}
	}
	correct := true
	for _, w := range todo {
		res, err := runWorkload(w, *seed, *seconds)
		if err != nil {
			fail(fmt.Errorf("%s: %v", w.name, err))
		}
		emit(res)
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// outDir receives the traced run's spans.
const outDir = "bench/out"

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func emit(res result) {
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// fail stops whatever is still running and exits without a result.
func fail(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// canaryIters sizes the host-noise canary to about 20 ms on the
// reference box. The count is fixed; only its duration is observed.
const canaryIters = 9_000_000

var canarySink uint64

// canary spins a fixed integer loop and returns how long it took. It
// touches no memory and calls nothing, so its time varies only with
// what the host takes away.
func canary() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < canaryIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	canarySink = x
	return time.Since(t0).Seconds()
}

func runWorkload(w workload, seed int64, seconds float64) (result, error) {
	fmt.Printf("== %s  seed=%d  nproc=%d\n", w.name, seed, runtime.NumCPU())

	t0 := time.Now()
	inst, err := w.setup(seed)
	if err != nil {
		return result{}, fmt.Errorf("setup: %v", err)
	}
	setup := time.Since(t0).Seconds()
	defer inst.close()

	var blocks []blockSample
	var spins, all []float64
	attempted, failed := 0, 0
	for b := 0; b < blockCount(seconds); b++ {
		spins = append(spins, canary())
		s, a, f := inst.block()
		attempted += a
		failed += f
		if len(s.Lat) == 0 {
			return result{}, fmt.Errorf("block %d completed no op (%d attempted, %d failed)", b, a, f)
		}
		all = append(all, s.Lat...)
		blocks = append(blocks, s)
		v := s.values()
		fmt.Printf("  block %d: %4d ops in %6.3fs  p50 %.5fs  p90 %.5fs  %8.2f ops/s  %9.0f cells/s  cpu %8.5fs/op\n",
			b, len(s.Lat), s.Wall, v.P50, v.P90, v.OpsPerS, v.CellsPerS, v.CPUPerOp)
	}
	spins = append(spins, canary())
	rss := inst.peakRSSMiB()
	checkErr := inst.check()

	q, m := quietEstimates(blocks, inst.inflight()), medianOverBlocks(blocks)
	values := map[string]float64{
		"setup_s":      setup,
		"op_p50_s":     q.P50,
		"op_p90_s":     q.P90,
		"ops_per_s":    q.OpsPerS,
		"cells_per_s":  q.CellsPerS,
		"cpu_s_per_op": q.CPUPerOp,
		"peak_rss_mb":  rss,
	}
	res := result{
		Correct:   checkErr == nil && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	kinds, _ := bestByKind(blocks)
	p90 := percentile(all, 0.90)
	fmt.Printf("  ops: attempted %d, succeeded %d, failed %d; %d blocks; N=%d ops of %d kinds measured under full load, %d beyond the run-wide p90\n",
		attempted, attempted-failed, failed, len(blocks), p90.N, len(kinds), p90.Beyond)
	fmt.Printf("%s op_p50_s=%.6g op_p90_s=%.6g ops_per_s=%.6g cells_per_s=%.6g cpu_s_per_op=%.6g\n",
		blockMediansPrefix, m.P50, m.P90, m.OpsPerS, m.CellsPerS, m.CPUPerOp)
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{values[e.name], e.unit}
		fmt.Printf("  %-13s %14.6f %s\n", e.name, values[e.name], e.unit)
	}
	mn, med, mx := slices.Min(spins), median(spins), slices.Max(spins)
	note := "spin steady"
	if med > 1.25*mn {
		note = "HOST NOISY: spin median exceeds 1.25 x its minimum; differences in this run are suspect"
	}
	fmt.Printf("  canary spin: min %.1f ms, median %.1f ms, max %.1f ms (%s)\n", mn*1e3, med*1e3, mx*1e3, note)
	if checkErr != nil {
		fmt.Printf("  output check FAILED: %v\n", checkErr)
	} else {
		fmt.Println("  output check passed")
	}
	return res, nil
}
