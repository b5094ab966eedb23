// Scaling: a strong-scaling demonstration sweeping worker counts,
// contention managers and load balancers on one input — a small
// interactive version of the paper's Sections 5.5 and 6.2 studies.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/img"
)

func main() {
	image := img.AbdominalPhantom(96, 96, 64)

	fmt.Println("strong scaling (Local-CM + HWS):")
	var t1 time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := core.Run(core.Config{
			Image:   image,
			Workers: workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		if workers == 1 {
			t1 = res.TotalTime
		}
		fmt.Printf("  %2d workers: %8.3fs  speedup %.2f  rollbacks %5d  elements %d\n",
			workers, res.TotalTime.Seconds(),
			t1.Seconds()/res.TotalTime.Seconds(),
			res.Stats.Rollbacks, res.Elements())
	}

	fmt.Println("\ncontention managers at 4 workers:")
	for _, cmName := range []string{"aggressive", "random", "global", "local"} {
		res, err := core.Run(core.Config{
			Image:             image,
			Workers:           4,
			ContentionManager: cmName,
		})
		if err != nil {
			log.Fatal(err)
		}
		status := "ok"
		if res.Livelocked {
			status = "LIVELOCK"
		}
		fmt.Printf("  %-12s %8.3fs  rollbacks %5d  contention %6.3fs  %s\n",
			cmName, res.TotalTime.Seconds(), res.Stats.Rollbacks,
			float64(res.Stats.ContentionNs)/1e9, status)
	}

	fmt.Println("\nload balancers at 4 workers (modeled Blacklight topology):")
	for _, bal := range []string{"rws", "hws"} {
		res, err := core.Run(core.Config{
			Image:    image,
			Workers:  4,
			Balancer: bal,
		})
		if err != nil {
			log.Fatal(err)
		}
		tr := res.Stats.Transfers
		fmt.Printf("  %-4s %8.3fs  transfers: %d intra-socket, %d intra-blade, %d inter-blade\n",
			bal, res.TotalTime.Seconds(), tr.IntraSocket, tr.IntraBlade, tr.InterBlade)
	}
}
