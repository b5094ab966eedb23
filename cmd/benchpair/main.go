// Command benchpair compares the working tree against another commit on
// one workload of the repository's benchmark, in alternating pairs of
// runs, so that both sides see the same host drift.
//
//	go run ./cmd/benchpair -against HEAD~1 -workload lib_mesh -pairs 10 -seeds 1,2
//
// It clones the repository into a scratch directory (-dir, default a
// "<repo>-benchpair" directory beside the working tree), checks out
// -against there, and runs the unchanged `go run ./bench -workload W
// -seed S` in each tree in turn, at the run length each tree's bench
// sets: pair i uses the i-th seed
// (cycling), and odd-numbered pairs run the other commit first, even
// ones the working tree. From the JSON line each run ends with it
// prints, per metric: both sides' median and interquartile range, the
// median change, how many pairs the working tree won (by the direction
// BENCHMARK.json gives the metric), and the two-sided sign-test p of
// those wins. A final line counts runs that were correct and ops that
// failed on each side.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// result is the JSON object the last line of a bench run holds.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// spec is one end-to-end metric of BENCHMARK.json.
type spec struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func main() {
	var (
		against  = flag.String("against", "", "commit to compare the working tree against (required)")
		workload = flag.String("workload", "", "benchmark workload (required)")
		pairs    = flag.Int("pairs", 10, "number of alternating pairs")
		seeds    = flag.String("seeds", "1", "comma-separated bench seeds, used by the pairs in turn")
		dir      = flag.String("dir", "", "where to clone the other commit (default: <repo>-benchpair beside the working tree)")
	)
	flag.Parse()
	if *against == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fail(err)
	}
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		fail(err)
	}
	sha, err := git(root, "rev-parse", "--verify", *against+"^{commit}")
	if err != nil {
		fail(err)
	}
	if *dir == "" {
		*dir = filepath.Join(filepath.Dir(root), filepath.Base(root)+"-benchpair")
	}
	if err := checkout(root, *dir, sha); err != nil {
		fail(err)
	}
	specs, err := readSpecs(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fail(err)
	}

	trees := [2]string{*dir, root} // 0: the other commit, 1: the working tree
	var runs [2][]result
	for i := 0; i < *pairs; i++ {
		seed := seedList[i%len(seedList)]
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			fmt.Fprintf(os.Stderr, "pair %d/%d, seed %d: %s\n", i+1, *pairs, seed, label(side, sha))
			res, err := runBench(trees[side], *workload, seed)
			if err != nil {
				fail(fmt.Errorf("pair %d, %s: %v", i+1, label(side, sha), err))
			}
			runs[side] = append(runs[side], res)
		}
	}
	fmt.Printf("%s, %d pairs, seeds %s: %s (A) against the working tree (B)\n", *workload, *pairs, *seeds, short(sha))
	report(os.Stdout, specs, runs[0], runs[1])
}

func label(side int, sha string) string {
	if side == 0 {
		return short(sha)
	}
	return "working tree"
}

func short(sha string) string { return sha[:min(len(sha), 10)] }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchpair:", err)
	os.Exit(1)
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// checkout leaves a clone of root at dir with sha checked out, cloning
// or fetching as needed.
func checkout(root, dir, sha string) error {
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		if _, err := git("", "clone", "--quiet", root, dir); err != nil {
			return err
		}
	}
	if _, err := git(dir, "cat-file", "-e", sha+"^{commit}"); err != nil {
		if _, err := git(dir, "fetch", "--quiet", root); err != nil {
			return err
		}
	}
	_, err := git(dir, "checkout", "--quiet", "--detach", sha)
	return err
}

func readSpecs(path string) ([]spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []spec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return b.EndToEnd, nil
}

// runBench runs one benchmark workload in tree and parses the JSON
// object on the last line of its output. A run whose output check fails
// exits non-zero but still reports; only a run with no result is an
// error.
func runBench(tree, workload string, seed int64) (result, error) {
	cmd := exec.Command("go", "run", "./bench", "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	cmd.Dir = tree
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		return result{}, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	return res, nil
}

// report prints the per-metric comparison of the paired runs a and b
// (a[i] and b[i] form pair i) and the correctness line.
func report(w io.Writer, specs []spec, a, b []result) {
	fmt.Fprintf(w, "%-13s %12s %11s %12s %11s %8s %6s %7s\n",
		"metric", "A median", "A IQR", "B median", "B IQR", "B vs A", "B wins", "sign p")
	for _, s := range specs {
		av, bv := values(a, s.Name), values(b, s.Name)
		if len(av) == 0 || len(bv) != len(av) {
			continue
		}
		am, bm := quantile(av, 0.5), quantile(bv, 0.5)
		wins, losses := 0, 0
		for i := range av {
			switch better(s, bv[i], av[i]) {
			case 1:
				wins++
			case -1:
				losses++
			}
		}
		fmt.Fprintf(w, "%-13s %12.4g %11.3g %12.4g %11.3g %+7.1f%% %3d/%-2d %7.3f\n",
			s.Name, am, iqr(av), bm, iqr(bv), 100*(bm-am)/am, wins, len(av), signTest(wins, losses))
	}
	count := func(rs []result) (correct, failed, attempted int) {
		for _, r := range rs {
			if r.Correct {
				correct++
			}
			failed += r.Failed
			attempted += r.Attempted
		}
		return
	}
	ac, af, aa := count(a)
	bc, bf, ba := count(b)
	fmt.Fprintf(w, "correct: A %d/%d, B %d/%d runs; failed ops: A %d of %d, B %d of %d\n",
		ac, len(a), bc, len(b), af, aa, bf, ba)
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// better reports +1 if x is better than y by the metric's direction,
// -1 if worse, 0 on a tie.
func better(s spec, x, y float64) int {
	if x == y {
		return 0
	}
	if (x < y) == (s.Better == "lower") {
		return 1
	}
	return -1
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// signTest returns the two-sided exact binomial p of wins against
// losses under even odds (ties dropped).
func signTest(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	k := min(wins, losses)
	tail := 0.0
	for i := 0; i <= k; i++ {
		tail += binom(n, i)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}
