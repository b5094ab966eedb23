package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
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

// ladderKey carries a proxied request's ladderTrips through the
// router's context into its backend round trips.
type ladderKey struct{}

// ladderTrips is one proxied request's backend round trips: cache
// reads (GET) and forwards (POST), by backend. The router makes them one
// after another on the request's goroutine.
type ladderTrips struct {
	reads map[string]int
	fwds  map[string]int
}

// countTrips is the soak's transport: it books every round trip made
// for a proxied request, then hands it to the partition. Health probes
// carry no ladder and pass straight through.
type countTrips struct{ next http.RoundTripper }

func (c countTrips) RoundTrip(req *http.Request) (*http.Response, error) {
	if l, ok := req.Context().Value(ladderKey{}).(*ladderTrips); ok {
		backend := req.URL.Scheme + "://" + req.URL.Host
		if req.Method == http.MethodGet {
			l.reads[backend]++
		} else {
			l.fwds[backend]++
		}
	}
	return c.next.RoundTrip(req)
}

// check reports how the request broke the ladder's structural bound, or
// "": each backend gets at most one cache read and one forward, and on
// a ring that held still for the whole request only the key's first
// `replicas` members (ladder) are tried. A nil ladder checks counts only.
func (l *ladderTrips) check(ladder []string) string {
	for _, trips := range []map[string]int{l.reads, l.fwds} {
		for b, n := range trips {
			if n > 1 {
				return fmt.Sprintf("%d cache reads or %d forwards to %s", l.reads[b], l.fwds[b], b)
			}
			if ladder != nil && !slices.Contains(ladder, b) {
				return fmt.Sprintf("%s tried outside the ladder %v", b, ladder)
			}
		}
	}
	return ""
}

// chaosOutcome is one soak request's answer, or its client-side error.
type chaosOutcome struct {
	key int // body index
	answer
	err error
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
//   - the router ledger balances: proxied == completed + failed;
//   - every request keeps the failover bound (ladderTrips.check).
func TestRouterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is long")
	}
	seed := chaosSeed(t)

	// Three real backends, one warm session each — small pools so the
	// soak exercises queueing and coalescing, not just happy paths.
	fleet := newPi2mdFleet(t, 3, serve.Config{QueueDepth: 8, DefaultTimeout: 10 * time.Second}, nil)
	nodeOf := map[string]string{} // backend URL → node id
	urls := make([]string, len(fleet))
	for i, b := range fleet {
		urls[i] = b.ts.URL
		nodeOf[b.ts.URL] = b.srv.NodeID()
	}

	part := &partition{}
	rt, err := New(Config{
		Backends:      urls,
		ProbeInterval: 30 * time.Millisecond,
		FailThreshold: 2,
		Transport:     countTrips{next: part},
		Jitter:        (&lockedJitter{rng: rand.New(rand.NewSource(seed + 1))}).Float64,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	// Every proxied request is checked against the ladder's bound as its
	// handler returns.
	var (
		ladderMu     sync.Mutex
		ladderBroken []string
	)
	proxy := rt.Handler()
	rts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		raw, _ := io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(raw))
		l := &ladderTrips{reads: map[string]int{}, fwds: map[string]int{}}
		rt.mu.Lock()
		gen := rt.mRebalances.Value()
		ladder := rt.ring.Replicas(meshKey(raw), replicas)
		rt.mu.Unlock()
		proxy.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), ladderKey{}, l)))
		if rt.mRebalances.Value() != gen {
			ladder = nil // membership moved mid-request
		}
		if why := l.check(ladder); why != "" {
			ladderMu.Lock()
			ladderBroken = append(ladderBroken, why)
			ladderMu.Unlock()
		}
	}))
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

	waitRing := func(what string, done func(members []string) bool) {
		t.Helper()
		for end := time.Now().Add(10 * time.Second); !done(rt.HealthyBackends()); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("%s never happened (ring %v)", what, rt.HealthyBackends())
			}
		}
	}
	waitRing("the fleet's join", func(m []string) bool { return len(m) == len(fleet) })

	// Three distinct small images — three route keys spread over the
	// ring — plus their derived keys for ownership assertions.
	bodies := make([][]byte, 3)
	keys := make([]string, 3)
	for i := range bodies {
		bodies[i] = sphereNRRD(t, 6+i)
		keys[i] = meshKey(bodies[i])
	}

	client := &http.Client{Timeout: 30 * time.Second}
	doMesh := func(ki int) chaosOutcome {
		resp, err := client.Post(rts.URL+"/v1/mesh", octets, bytes.NewReader(bodies[ki]))
		if err != nil {
			return chaosOutcome{key: ki, err: err}
		}
		return chaosOutcome{key: ki, answer: read(t, resp)}
	}
	servedBy := func(out chaosOutcome, node string) bool {
		return out.err == nil && out.StatusCode == http.StatusOK && out.Header.Get(wire.NodeHeader) == node
	}

	// Seed every backend's result cache with key 0's mesh directly —
	// standing in for the shared-storage replication a real deployment
	// runs — so after the kill any survivor can answer the victim's
	// warmest key cache-only instead of re-meshing it.
	var seedETag string
	for _, b := range fleet {
		a := call(t, http.MethodPost, b.ts.URL+"/v1/mesh", octets, bodies[0])
		if a.StatusCode != http.StatusOK {
			t.Fatalf("seeding %s with key 0: status %d", b.srv.NodeID(), a.StatusCode)
		}
		if raw := rawETagFromHeader(a.Header.Get("ETag")); raw != "" {
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
	// kill -9 as seen from the router) and wait for ejection. The storm
	// ejects and re-admits backends now and then, so the owner is read
	// off the whole fleet's ring, where key 0 re-homes after the restart.
	victim := rt.allRing.Owner(keys[0])
	victimNode := nodeOf[victim]
	part.set(victim, true)
	waitRing("the victim's ejection", func(m []string) bool { return !slices.Contains(m, victim) })

	// The killed node's keys must be served by survivors: drive key 0
	// directly and require at least one success from a non-victim node.
	survivorServed := false
	for i := 0; i < 10 && !survivorServed; i++ {
		out := doMesh(0)
		if servedBy(out, victimNode) {
			t.Fatalf("dead node %s served key 0", victimNode)
		}
		survivorServed = out.err == nil && out.StatusCode == http.StatusOK
	}
	if !survivorServed {
		t.Fatal("no survivor ever served the killed node's key")
	}

	// The replica cache read must fire for key 0: its recorded server is
	// dead and every survivor holds the seeded result. Keep driving the
	// key until the metric moves. If a fallback re-mesh re-pointed the
	// ETag entry at a healthy survivor before a replica read landed (an
	// injected dial failure can burn one), point the entry back at the
	// dead victim — exactly the state a router restarted mid-outage would
	// hold.
	end := time.Now().Add(15 * time.Second)
	for rt.Stats().ReplicaCacheHits == 0 {
		if time.Now().After(end) {
			t.Fatal("owner kill never produced a replica cache-only read for key 0")
		}
		if ent, ok := rt.etags.lookup(keys[0]); !ok || ent.backend != victim {
			rt.etags.learn(keys[0], seedETag, victim)
		}
		if servedBy(doMesh(0), victimNode) {
			t.Fatalf("dead node %s served key 0", victimNode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: restart wave — heal the partition, wait for rejoin,
	// then require key 0 to re-home to its original owner.
	part.set(victim, false)
	waitRing("the victim's rejoin", func(m []string) bool { return slices.Contains(m, victim) })
	rehomed := false
	end = time.Now().Add(15 * time.Second)
	for !rehomed {
		if time.Now().After(end) {
			t.Fatalf("key 0 never re-homed to %s after rejoin", victimNode)
		}
		rehomed = servedBy(doMesh(0), victimNode)
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
		switch {
		case out.err != nil:
			t.Errorf("request for key %d died at the client: %v", out.key, out.err)
		case out.StatusCode >= 400:
			errs++
			if out.code == "" || out.reason == "" {
				t.Errorf("status %d without a valid error envelope", out.StatusCode)
			}
			if out.StatusCode == http.StatusServiceUnavailable || out.StatusCode == http.StatusTooManyRequests {
				if sec, err := strconv.Atoi(out.Header.Get("Retry-After")); err != nil || sec < 1 || sec > 30 {
					t.Errorf("status %d Retry-After %q outside [1,30]s", out.StatusCode, out.Header.Get("Retry-After"))
				}
			}
		case out.StatusCode == http.StatusOK:
			ok200++
			if out.cacheOnly() {
				cacheOnlyServed++
			}
			if out.Header.Get(wire.NodeHeader) == "" {
				t.Error("200 response without a node header")
			}
		default:
			t.Errorf("unexpected status %d", out.StatusCode)
		}
	}
	if ok200 == 0 {
		t.Fatal("the soak never completed a single mesh")
	}

	// Bodies are length-framed, so a client has its whole answer before
	// the handler bumps the completed counter. Close blocks until every
	// handler has returned; only then is the ledger final.
	rts.Close()
	st := rt.Stats()
	if st.ProxiedJobs != st.CompletedJobs+st.FailedJobs {
		t.Fatalf("ledger unbalanced: proxied=%d completed=%d failed=%d",
			st.ProxiedJobs, st.CompletedJobs, st.FailedJobs)
	}
	if st.Rebalances < 4 {
		// 3 joins at boot + at least the kill/rejoin pair (injected
		// probe drops typically add more).
		t.Fatalf("rebalances = %d, want the kill/restart wave visible (>=4)", st.Rebalances)
	}
	if st.ReplicaCacheHits < 1 {
		t.Fatalf("replica_cache_hits = %d after an owner kill over warm replicas, want >=1", st.ReplicaCacheHits)
	}

	// The failover bound, checked per request as each ended: at most
	// len(candidates) backends, each with at most one cache read and one
	// forward in one attempt, so at most k = len(candidates) − 1 retries a
	// request, len(candidates) being every backend while the ring is empty.
	if len(ladderBroken) > 0 {
		t.Fatalf("%d requests broke the ladder bound, first: %s", len(ladderBroken), ladderBroken[0])
	}
	if k := int64(len(urls) - 1); st.Retries > k*st.ProxiedJobs {
		t.Fatalf("retries = %d exceed %d x %d proxied jobs", st.Retries, k, st.ProxiedJobs)
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
		}
		raw, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Errorf("writing chaos report: %v", err)
		}
	}
}
