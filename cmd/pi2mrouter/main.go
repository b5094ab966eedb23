// Command pi2mrouter is the distributed meshing tier's router: a thin
// HTTP proxy that consistent-hashes each job's (image SHA-256, quality
// variant) key onto a fleet of pi2md backends, so repeat and
// coalescable traffic for an image lands on the node whose warm
// sessions and result cache already know it.
//
//	pi2mrouter -addr :8090 -backends http://node1:8080,http://node2:8080
//
//	curl -s --data-binary @brain.nrrd 'localhost:8090/v1/mesh?format=vtk' > brain.vtk
//	curl -s -H 'If-None-Match: "<etag>-vtk"' --data-binary @brain.nrrd localhost:8090/v1/mesh
//	curl -s -X POST 'localhost:8090/v1/drain?backend=http://node1:8080'
//	curl -s localhost:8090/readyz
//	curl -s localhost:8090/v1/stats
//	curl -s localhost:8090/metrics
//
// Backends are health-probed on /readyz at jittered intervals; a node
// failing -fail-threshold consecutive probes (or proxy attempts) is
// ejected from the ring and its keys re-home to the surviving
// replicas with minimal movement. One passing probe rejoins it. Every
// request is buffered (up to -max-bytes) and keyed by the SHA-256 of
// its image bytes, so an attempt that fails replays on the next
// replica; concurrent requests for one key meet on its owner, whose
// coalescing runs the job once.
//
// The router keeps a bounded (route key → entity tag, backend) table
// learned from relayed responses: If-None-Match requests that name the
// learned entity are answered 304 locally without a backend round
// trip, and when a key's last-known server drops out of the ring the
// router probes the surviving replicas cache-only (GET /v1/cache/…)
// before paying a full re-mesh. POST /v1/drain?backend=… runs the
// planned-drain handoff: the backend announces its warmest cached keys
// (flipping itself to draining), the router pre-warms its table with
// them, then ejects the node immediately. On SIGINT/SIGTERM the router
// stops accepting, lets in-flight proxies finish (bounded by
// -drain-timeout), and exits; it holds no durable state — the ETag
// table is a rebuildable cache.
//
// The flags are deployment settings: -addr -backends -probe-interval
// -fail-threshold -max-bytes -drain-timeout. The ladder depth (two
// distinct backends per key), ring density, the probe deadline and the
// ETag table's size are constants in internal/router. The binary links
// no mesher.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("pi2mrouter: ")

	var (
		addr          = flag.String("addr", ":8090", "listen address")
		backends      = flag.String("backends", "", "comma-separated pi2md base URLs (required)")
		probeInterval = flag.Duration("probe-interval", time.Second, "mean backend health-probe period (jittered)")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive failures ejecting a backend from the ring")
		maxBytes      = flag.Int64("max-bytes", 64<<20, "request body cap (the router buffers each body to key it)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight proxies")
	)
	flag.Parse()

	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	if len(list) == 0 {
		log.Fatal("at least one backend is required (-backends http://host:port,...)")
	}

	rt, err := router.New(router.Config{
		Backends:        list,
		ProbeInterval:   *probeInterval,
		FailThreshold:   *failThreshold,
		MaxRequestBytes: *maxBytes,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("draining (waiting up to %v for in-flight proxies)", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		hs.Shutdown(ctx)
		rt.Stop()
	}()

	log.Printf("routing on %s over %d backend(s): %s", *addr, len(list), strings.Join(list, ", "))
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Printf("bye")
}
