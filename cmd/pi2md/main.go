// Command pi2md is the PI2M meshing daemon: an HTTP server
// multiplexing image-to-mesh requests over a bounded pool of warm
// sessions, with admission control, a crash-safe persistent result
// cache, Prometheus metrics and graceful drain. Under overload it
// browns out — serves a coarser mesh, stamped X-Pi2md-Brownout — rather
// than rejecting. Its ten flags are what a deployment sets; the brownout
// ladder and hold, breaker, watchdog, coalescing and image-cache bounds
// are fixed in package serve.
//
//	pi2md -addr :8080 -pool 4 -queue 32 -cache-dir /var/lib/pi2md/cache
//
//	curl -s --data-binary @brain.nrrd 'localhost:8080/v1/mesh?format=vtk' > brain.vtk
//	curl -s -H 'If-None-Match: "<etag>-vtk"' --data-binary @brain.nrrd localhost:8080/v1/mesh
//	curl -s localhost:8080/v1/cache/<image-sha256>            # body-less cache read (404 = cache_miss)
//	curl -s -X POST localhost:8080/v1/drain                   # announce drain, hand off warm keys
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM the daemon stops accepting, lets in-flight jobs
// finish (bounded by -drain-timeout), and exits. Nothing is written at
// shutdown: every cached mesh was durable when its request returned, so
// a kill -9 loses none of them — each boot re-verifies every blob and
// rebuilds the index from them — and breakers start closed.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/serve"
)

// idleEvict is how long a session may sit unused before the janitor
// releases its arenas and EDT buffers.
const idleEvict = 10 * time.Minute

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("pi2md: ")

	var (
		addr         = flag.String("addr", ":8080", "listen address")
		debugAddr    = flag.String("debug-addr", "", "optional net/http/pprof listener (never on the serving port; empty disables)")
		pool         = flag.Int("pool", 2, "warm sessions (run concurrency ceiling)")
		queue        = flag.Int("queue", 16, "max jobs queued beyond the running ones")
		workers      = flag.Int("workers", 0, "refinement threads per session (0 = GOMAXPROCS)")
		maxBytes     = flag.Int64("max-bytes", 64<<20, "request body size cap")
		timeout      = flag.Duration("timeout", 60*time.Second, "default per-job deadline (queue wait + run)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		cacheDir     = flag.String("cache-dir", "", "persistent result-cache directory (empty disables the cache)")
		cacheMaxB    = flag.Int64("cache-max-bytes", 1<<30, "LRU byte budget for the persistent result cache")
	)
	flag.Parse()

	var cache *cachestore.Store
	if *cacheDir != "" {
		var rep cachestore.FsckReport
		var err error
		cache, rep, err = cachestore.Open(cachestore.Config{Dir: *cacheDir, MaxBytes: *cacheMaxB})
		if err != nil {
			log.Fatalf("opening result cache: %v", err)
		}
		log.Printf("result cache %s: %d entries, %s", *cacheDir, cache.Len(), rep)
	}

	srv, err := serve.NewServer(serve.Config{
		PoolSize:        *pool,
		QueueDepth:      *queue,
		DefaultTimeout:  *timeout,
		MaxRequestBytes: *maxBytes,
		Cache:           cache,
		Brownout:        true,
		Session:         core.Config{Workers: *workers},
	})
	if err != nil {
		log.Fatal(err)
	}

	ticker := time.NewTicker(idleEvict / 2)
	defer ticker.Stop()
	go func() {
		for range ticker.C {
			if n := srv.Pool().EvictIdle(idleEvict); n > 0 {
				log.Printf("evicted %d idle session(s)", n)
			}
		}
	}()

	// The pprof surface lives on its own listener, opt-in, and is never
	// registered on the serving mux: profiling endpoints leak heap and
	// goroutine internals and must not be reachable from mesh clients.
	if *debugAddr != "" {
		if *debugAddr == *addr {
			log.Fatalf("-debug-addr %s must differ from the serving -addr", *debugAddr)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("pprof on %s", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("draining (waiting up to %v for in-flight jobs)", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("drain cut short: %v", err)
		}
		if cache != nil {
			cache.Close()
		}
		hs.Shutdown(ctx)
	}()

	log.Printf("serving on %s (pool=%d queue=%d)", *addr, *pool, *queue)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Printf("bye")
}
