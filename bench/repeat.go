//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the contract at the module root: metric names, the
// direction in which each is better, and the bound by which each may
// worsen.
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds() ([]metricSpec, error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", benchmarkFile, err)
	}
	return doc.EndToEnd, nil
}

// issueGap is the agreement ISSUE 12 asks of two sets of runs of the same
// code. It is reported beside the verdict on BENCHMARK.json's bounds so
// that a bound wider than it never reads as the issue's criterion met.
const issueGap = 0.10

// runRepeat runs two interleaved sets, A and B, of n runs per workload
// on the same code, every run with its own seed, and applies the
// acceptance rule a change to this benchmark is held to: the spread of
// all 2n values (interquartile range over median, set-up time excepted)
// and the gap between the two sides' medians must stay within the
// metric's bound. Each side's own spread is printed for information;
// with n = 5 its quartiles rest on very few values. The same runs'
// medians over blocks are held to the same rule in a second table, for
// the record; they do not decide the exit code.
// It returns the process exit code.
func runRepeat(n int, seconds float64) int {
	specs, err := readBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var metrics, medians tally
	for _, w := range workloads {
		var gated, blockMed sides
		for i := 0; i < 2*n; i++ {
			res, med, err := runChild(exe, w.name, int64(i+1), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, i+1, err)
				return 1
			}
			for name, m := range res.Metrics {
				gated.add(i%2, name, m.Value)
			}
			for name, v := range med {
				blockMed.add(i%2, name, v)
			}
		}
		fmt.Printf("== %s: %d runs per side, A = odd seeds, B = even seeds, interleaved\n", w.name, n)
		metrics.table(gated, specs)
		fmt.Printf("-- %s, the same runs: medians over blocks, not gated\n", w.name)
		medians.table(blockMed, specs)
	}
	fmt.Printf("medians over blocks: %d spread(s) or gap(s) outside the bounds of %s, %d of %d gaps above %.2f\n",
		medians.bad, benchmarkFile, medians.pastIssue, medians.pairs, issueGap)
	fmt.Printf("metrics: ISSUE 12 asks every gap to be <= %.2f: %d of %d exceed it\n", issueGap, metrics.pastIssue, metrics.pairs)
	if metrics.bad > 0 {
		fmt.Printf("FAIL: %d spread(s) or gap(s) of the metrics outside the bounds of %s\n", metrics.bad, benchmarkFile)
		return 1
	}
	fmt.Printf("every spread and every gap of the metrics is within the bounds of %s\n", benchmarkFile)
	return 0
}

// sides holds the values of each metric on side A (0) and side B (1).
type sides [2]map[string][]float64

func (s *sides) add(side int, name string, v float64) {
	if s[side] == nil {
		s[side] = map[string][]float64{}
	}
	s[side][name] = append(s[side][name], v)
}

// tally counts, over the tables printed so far, the spreads and gaps
// outside their bounds, the gaps compared, and those above issueGap.
type tally struct{ bad, pairs, pastIssue int }

// table prints one row per metric of specs that s has values for.
func (t *tally) table(s sides, specs []metricSpec) {
	fmt.Printf("  %-13s %-5s %12s %12s %12s %7s   %12s %12s %12s %7s   %7s %7s %6s\n",
		"metric", "unit", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "A+B spr", "gap", "bound")
	for _, sp := range specs {
		a, b := s[0][sp.Name], s[1][sp.Name]
		if len(a) == 0 {
			continue
		}
		a1, a2, a3 := quartiles(a)
		b1, b2, b3 := quartiles(b)
		p1, p2, p3 := quartiles(append(append([]float64(nil), a...), b...))
		spreadAll := (p3 - p1) / p2
		// gap > 0 means B is worse than A.
		gap := (b2 - a2) / a2
		if sp.Better == "higher" {
			gap = -gap
		}
		verdict := ""
		t.pairs++
		if max(gap, -gap) > issueGap {
			t.pastIssue++
		}
		if max(gap, -gap) > sp.Bound {
			verdict = "  GAP EXCEEDS BOUND"
			t.bad++
		}
		if sp.Name != "setup_s" && spreadAll > sp.Bound {
			verdict += "  SPREAD EXCEEDS BOUND"
			t.bad++
		}
		fmt.Printf("  %-13s %-5s %12.5g %12.5g %12.5g %7.3f   %12.5g %12.5g %12.5g %7.3f   %7.3f %+7.3f %6.2f%s\n",
			sp.Name, sp.Unit, a1, a2, a3, (a3-a1)/a2, b1, b2, b3, (b3-b1)/b2, spreadAll, gap, sp.Bound, verdict)
	}
}

// blockMediansPrefix starts the line on which a run prints its medians
// over blocks as name=value pairs.
const blockMediansPrefix = "  medians over blocks, host included:"

// runChild runs one workload once in a child process, as the driver
// does, and parses the result line and the medians over blocks.
func runChild(exe, workload string, seed int64, seconds float64) (result, map[string]float64, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, nil, fmt.Errorf("result line: %v", err)
	}
	if !res.Correct || res.Failed > 0 {
		return result{}, nil, fmt.Errorf("incorrect run: %s", last)
	}
	med := map[string]float64{}
	for _, line := range lines {
		rest, ok := strings.CutPrefix(line, blockMediansPrefix)
		if !ok {
			continue
		}
		for _, pair := range strings.Fields(rest) {
			name, val, _ := strings.Cut(pair, "=")
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return result{}, nil, fmt.Errorf("medians line: %q: %v", pair, err)
			}
			med[name] = v
		}
	}
	return res, med, nil
}
