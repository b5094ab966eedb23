// Command experiments regenerates the paper's evaluation tables and
// figures at host scale:
//
//	experiments -run table1           # contention manager comparison (Table 1)
//	experiments -run fig5             # strong scaling RWS vs HWS (Figure 5)
//	experiments -run table4a          # weak scaling, abdominal (Table 4a)
//	experiments -run table4b          # weak scaling, knee (Table 4b)
//	experiments -run table5           # hyper-threading model (Table 5)
//	experiments -run fig6             # overhead timeline (Figure 6)
//	experiments -run table6           # single-threaded comparison (Table 6)
//	experiments -run all
//
// Flags -scale, -threads and -repeats size the runs for the host.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		run     = flag.String("run", "all", "experiment: table1|fig5|table4a|table4b|table5|fig6|table6|all")
		scale   = flag.Int("scale", 96, "phantom edge length in voxels")
		threads = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		repeats = flag.Int("repeats", 1, "average timings over this many runs")
		csvDir  = flag.String("csv", "", "also write plot-ready CSV files into this directory")
	)
	flag.Parse()

	var ths []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			log.Fatalf("bad -threads value %q", part)
		}
		ths = append(ths, n)
	}
	p := experiments.Params{
		ImageScale: *scale,
		Threads:    ths,
		Repeats:    *repeats,
	}

	want := func(name string) bool { return *run == "all" || *run == name }
	ran := false

	writeCSV := func(name string, fn func(w io.Writer) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*csvDir + "/" + name)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s/%s\n", *csvDir, name)
	}

	if want("table1") {
		ran = true
		rows, err := experiments.Table1(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatTable1(rows))
		writeCSV("table1.csv", func(w io.Writer) error { return experiments.Table1CSV(w, rows) })
	}
	if want("fig5") {
		ran = true
		rows, err := experiments.Fig5(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatFig5(rows))
		writeCSV("fig5.csv", func(w io.Writer) error { return experiments.Fig5CSV(w, rows) })
	}
	if want("table4a") {
		ran = true
		rows, err := experiments.Table4(p, "abdominal")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatTable4(rows, "abdominal phantom"))
		writeCSV("table4a.csv", func(w io.Writer) error { return experiments.Table4CSV(w, rows) })
	}
	if want("table4b") {
		ran = true
		rows, err := experiments.Table4(p, "knee")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatTable4(rows, "knee phantom"))
		writeCSV("table4b.csv", func(w io.Writer) error { return experiments.Table4CSV(w, rows) })
	}
	if want("table5") {
		ran = true
		rows, err := experiments.Table5(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatTable5(rows))
		writeCSV("table5.csv", func(w io.Writer) error { return experiments.Table5CSV(w, rows) })
	}
	if want("fig6") {
		ran = true
		pts, err := experiments.Fig6(p)
		if err != nil {
			log.Fatal(err)
		}
		maxT := 0
		for _, n := range ths {
			if n > maxT {
				maxT = n
			}
		}
		fmt.Print(experiments.FormatFig6Threads(pts, maxT))
		writeCSV("fig6.csv", func(w io.Writer) error { return experiments.Fig6CSV(w, pts) })
	}
	if want("table6") {
		ran = true
		rows, err := experiments.Table6(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatTable6(rows))
		writeCSV("table6.csv", func(w io.Writer) error { return experiments.Table6CSV(w, rows) })
	}
	if !ran {
		log.Printf("unknown experiment %q", *run)
		flag.Usage()
		os.Exit(2)
	}
}
