package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/serve"
	"repro/internal/wire"
)

// chaosSeed mirrors the serve-package convention: PI2MD_CHAOS_SEED
// drives the CI matrix, a fixed default keeps local runs reproducible.
func chaosSeed(t *testing.T) int64 {
	if v := os.Getenv("PI2MD_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad PI2MD_CHAOS_SEED=%q: %v", v, err)
		}
		return n
	}
	return 11
}

// chaosBackend is one real pi2md node under the router: a live
// serve.Server with its full self-healing stack, plus the partition
// flag standing in for kill -9 from the router's point of view.
type chaosBackend struct {
	srv *serve.Server
	ts  *httptest.Server
}

// lockedJitter makes a seeded rand usable from the router's
// concurrent probe loops.
type lockedJitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (l *lockedJitter) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

type chaosOutcome struct {
	key        int // body index
	code       int
	node       string
	retryAfter string
	cacheOnly  string // X-Pi2md-Cache-Only marker, "hit" on replica reads
	envelopeOK bool
	reason     string
}

// TestRouterChaosSoak is the distributed tier's chaos harness: a
// router over three REAL pi2md backends under seeded mixed-key
// traffic, with injected proxy-dial failures and dropped probes, a
// node kill mid-traffic, and a restart wave. Invariants:
//
//   - zero hung requests: every issued request produces an outcome;
//   - every 4xx/5xx carries the JSON error envelope, every router or
//     backend 503/429 a Retry-After within the [1,30]s clamp;
//   - the killed node is ejected and its keys are served by the
//     surviving replicas (no success ever names the dead node while
//     it is down);
//   - at least one of the killed node's previously-served keys is
//     answered from a survivor's result cache via the cache-only
//     replica read (replica_cache_hits > 0), not re-meshed;
//   - after the restart the node rejoins and its keys re-home to it;
//   - the router ledger balances: proxied == completed + failed, and
//     no flight pin outlives its requests.
func TestRouterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is long")
	}
	seed := chaosSeed(t)

	// Three real backends, one warm session each — small pools so the
	// soak exercises queueing and coalescing, not just happy paths.
	fleet := make([]*chaosBackend, 3)
	nodeOf := map[string]string{} // backend URL → node id
	urlOfNode := map[string]string{}
	for i := range fleet {
		store, _, err := cachestore.Open(cachestore.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(serve.Config{
			PoolSize:       1,
			QueueDepth:     8,
			DefaultTimeout: 10 * time.Second,
			Cache:          store,
			Session:        core.Config{Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b := &chaosBackend{srv: srv, ts: ts}
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Drain(ctx)
			store.Close()
		})
		fleet[i] = b
		nodeOf[ts.URL] = srv.NodeID()
		urlOfNode[srv.NodeID()] = ts.URL
	}

	part := &partition{}
	urls := make([]string, len(fleet))
	for i, b := range fleet {
		urls[i] = b.ts.URL
	}
	rt, err := New(Config{
		Backends:      urls,
		Replicas:      2,
		ProbeInterval: 30 * time.Millisecond,
		FailThreshold: 2,
		Transport:     part,
		Jitter:        (&lockedJitter{rng: rand.New(rand.NewSource(seed + 1))}).Float64,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	// Injected network chaos rides on top of the kill wave: sporadic
	// proxy dial failures (forcing replica fallback on healthy rings)
	// and dropped probes (forcing spurious ejections and rejoins).
	storm := faultinject.New(faultinject.Config{
		Seed: seed,
		Rates: map[faultinject.Point]float64{
			faultinject.ProxyDialFail: 0.02,
			faultinject.ProbeFail:     0.05,
		},
	})
	restore := faultinject.Enable(storm)
	defer restore()

	waitHealthy := func(n int, deadline time.Duration) {
		t.Helper()
		end := time.Now().Add(deadline)
		for len(rt.HealthyBackends()) != n {
			if time.Now().After(end) {
				t.Fatalf("fleet never reached %d healthy backends (have %v)",
					n, rt.HealthyBackends())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealthy(3, 10*time.Second)

	// Three distinct small images — three route keys spread over the
	// ring — plus their derived keys for ownership assertions.
	bodies := make([][]byte, 3)
	keys := make([]string, 3)
	for i := range bodies {
		var buf bytes.Buffer
		if err := img.WriteNRRD(&buf, img.SpherePhantom(6+i)); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
		spec, err := wire.MeshSpecFromQuery(nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = routeKey(wire.ImageKey(bodies[i]), spec.Variant())
	}

	client := &http.Client{Timeout: 30 * time.Second}
	doMesh := func(ki int) chaosOutcome {
		resp, err := client.Post(rts.URL+"/v1/mesh", "application/octet-stream",
			bytes.NewReader(bodies[ki]))
		if err != nil {
			return chaosOutcome{key: ki, code: -1, reason: err.Error()}
		}
		defer resp.Body.Close()
		out := chaosOutcome{
			key:        ki,
			code:       resp.StatusCode,
			node:       resp.Header.Get(wire.NodeHeader),
			retryAfter: resp.Header.Get("Retry-After"),
			cacheOnly:  resp.Header.Get(wire.CacheOnlyHeader),
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode >= 400 {
			var env struct {
				Error struct {
					Code   string `json:"code"`
					Reason string `json:"reason"`
				} `json:"error"`
			}
			if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" && env.Error.Reason != "" {
				out.envelopeOK = true
				out.reason = env.Error.Code
			}
		}
		return out
	}

	// Seed every backend's result cache with key 0's mesh directly —
	// standing in for the shared-storage replication a real deployment
	// runs — so after the kill any survivor can answer the victim's
	// warmest key cache-only instead of re-meshing it.
	var seedETag string
	for _, b := range fleet {
		resp, err := client.Post(b.ts.URL+"/v1/mesh", "application/octet-stream",
			bytes.NewReader(bodies[0]))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding %s with key 0: status %d", b.srv.NodeID(), resp.StatusCode)
		}
		if raw := rawETagFromHeader(resp.Header.Get("ETag")); raw != "" {
			seedETag = raw
		}
	}
	if seedETag == "" {
		t.Fatal("seeding produced no parseable entity tag")
	}

	// Background traffic: four workers hammering random keys through
	// every phase, so the kill and restart land mid-traffic.
	var (
		outcomesMu sync.Mutex
		outcomes   []chaosOutcome
		issued     int64
	)
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wrng := rand.New(rand.NewSource(seed + 100 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				out := doMesh(wrng.Intn(len(bodies)))
				outcomesMu.Lock()
				issued++
				outcomes = append(outcomes, out)
				outcomesMu.Unlock()
			}
		}()
	}

	// Phase 1: healthy-fleet soak.
	time.Sleep(700 * time.Millisecond)

	// Phase 2: kill the owner of key 0 mid-traffic (partitioned away —
	// kill -9 as seen from the router) and wait for ejection.
	// The storm's injected dial failures eject backends passively and the
	// 30 ms probes re-admit them, so at this rate of traffic the ring is
	// now and then empty for an instant: wait for an owner, don't sample.
	victim := rt.Owner(keys[0])
	for end := time.Now().Add(10 * time.Second); victim == "" && time.Now().Before(end); victim = rt.Owner(keys[0]) {
		time.Sleep(5 * time.Millisecond)
	}
	if victim == "" {
		t.Fatal("no owner for key 0 on a healthy ring")
	}
	victimNode := nodeOf[victim]
	part.set(victim, true)
	end := time.Now().Add(10 * time.Second)
	for {
		alive := false
		for _, h := range rt.HealthyBackends() {
			alive = alive || h == victim
		}
		if !alive {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("victim %s never ejected", victim)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The killed node's keys must be served by survivors: drive key 0
	// directly and require at least one success from a non-victim node.
	survivorServed := false
	for i := 0; i < 10 && !survivorServed; i++ {
		out := doMesh(0)
		if out.code == http.StatusOK {
			if out.node == victimNode {
				t.Fatalf("dead node %s served key 0", victimNode)
			}
			survivorServed = true
		}
	}
	if !survivorServed {
		t.Fatal("no survivor ever served the killed node's key")
	}

	// The replica cache-only read must fire for key 0: its recorded
	// server is dead and every survivor holds the seeded result. Keep
	// driving the key until the metric moves. If a fallback re-mesh
	// re-pointed the ETag entry at a healthy survivor before a ladder
	// walk landed (an injected dial failure can burn one), re-arm the
	// trigger by pointing the entry back at the dead victim — exactly
	// the state a router restarted mid-outage would hold.
	end = time.Now().Add(15 * time.Second)
	for rt.Stats().ReplicaCacheHits == 0 {
		if time.Now().After(end) {
			t.Fatal("owner kill never produced a replica cache-only read for key 0")
		}
		if ent, ok := rt.etags.lookup(keys[0]); !ok || rt.isHealthy(ent.backend) {
			rt.etags.learn(keys[0], seedETag, victim)
		}
		if out := doMesh(0); out.code == http.StatusOK && out.node == victimNode {
			t.Fatalf("dead node %s served key 0", victimNode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: restart wave — heal the partition, wait for rejoin,
	// then require key 0 to re-home to its original owner.
	part.set(victim, false)
	end = time.Now().Add(10 * time.Second)
	for {
		back := false
		for _, h := range rt.HealthyBackends() {
			back = back || h == victim
		}
		if back {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("victim %s never rejoined", victim)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rehomed := false
	end = time.Now().Add(15 * time.Second)
	for !rehomed {
		if time.Now().After(end) {
			t.Fatalf("key 0 never re-homed to %s after rejoin", victimNode)
		}
		if out := doMesh(0); out.code == http.StatusOK && out.node == victimNode {
			rehomed = true
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 4: stop traffic; every worker must return (zero hangs is
	// enforced by the client timeout plus this bounded wait).
	close(stopTraffic)
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		t.Fatal("traffic workers hung")
	}

	outcomesMu.Lock()
	defer outcomesMu.Unlock()
	if int64(len(outcomes)) != issued {
		t.Fatalf("%d outcomes for %d issued requests", len(outcomes), issued)
	}
	var ok200, errs, cacheOnlyServed int
	for _, out := range outcomes {
		if out.cacheOnly == "hit" {
			cacheOnlyServed++
		}
		switch {
		case out.code == -1:
			t.Errorf("request for key %d died at the client: %s", out.key, out.reason)
		case out.code >= 400:
			errs++
			if !out.envelopeOK {
				t.Errorf("status %d without a valid error envelope", out.code)
			}
			if out.code == http.StatusServiceUnavailable || out.code == http.StatusTooManyRequests {
				sec, err := strconv.Atoi(out.retryAfter)
				if err != nil || sec < 1 || sec > 30 {
					t.Errorf("status %d Retry-After %q outside [1,30]s", out.code, out.retryAfter)
				}
			}
		case out.code == http.StatusOK:
			ok200++
			if out.node == "" {
				t.Error("200 response without a node header")
			}
		default:
			t.Errorf("unexpected status %d", out.code)
		}
	}
	if ok200 == 0 {
		t.Fatal("the soak never completed a single mesh")
	}

	// Bodies are length-framed, so a client has its whole answer before
	// finish bumps the completed counter. Close blocks until every handler
	// has returned; only then is the ledger final.
	rts.Close()
	st := rt.Stats()
	if st.ProxiedJobs != st.CompletedJobs+st.FailedJobs {
		t.Fatalf("ledger unbalanced: proxied=%d completed=%d failed=%d",
			st.ProxiedJobs, st.CompletedJobs, st.FailedJobs)
	}
	if n := len(rt.InflightKeys()); n != 0 {
		t.Fatalf("%d flight pins outlived their requests", n)
	}
	if st.Rebalances < 4 {
		// 3 joins at boot + at least the kill/rejoin pair (injected
		// probe drops typically add more).
		t.Fatalf("rebalances = %d, want the kill/restart wave visible (>=4)", st.Rebalances)
	}
	if st.ReplicaCacheHits < 1 {
		t.Fatalf("replica_cache_hits = %d after an owner kill over warm replicas, want >=1", st.ReplicaCacheHits)
	}

	// Retry-budget ledger: every retry withdrew a token, and tokens only
	// enter the bucket at boot (seed) or as a fraction of ok relays —
	// so the retry count can never exceed seed + ratio x ok_relays.
	var okRelays int64
	for _, backend := range rt.order {
		okRelays += rt.mProxied.Value(backend, outcomeOK)
	}
	if maxRetries := retrySeed + retryRatio*float64(okRelays); float64(st.Retries) > maxRetries+1e-9 {
		t.Fatalf("retries = %d exceed the budget ledger bound %.1f (seed %.0f + %.2f x %d ok relays)",
			st.Retries, maxRetries, float64(retrySeed), retryRatio, okRelays)
	}

	if path := os.Getenv("PI2MR_CHAOS_REPORT"); path != "" {
		report := map[string]any{
			"seed":        seed,
			"requests":    issued,
			"http_200":    ok200,
			"http_errors": errs,
			"rebalances":  st.Rebalances,
			"proxied":     st.ProxiedJobs,
			"completed":   st.CompletedJobs,
			"failed":      st.FailedJobs,
			"victim":      victimNode,

			"replica_cache_hits":   st.ReplicaCacheHits,
			"replica_cache_misses": st.ReplicaCacheMisses,
			"etag_304s":            st.ETag304s,
			"cache_only_served":    cacheOnlyServed,
			"retries":              st.Retries,
			"retry_exhausted":      st.RetryExhausted,
		}
		raw, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Errorf("writing chaos report: %v", err)
		}
	}
}
