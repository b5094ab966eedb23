package router

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Proxy outcome labels of pi2mr_proxied_jobs_total.
const (
	outcomeOK           = "ok"              // relayed a 2xx/3xx
	outcomeUpstream4xx  = "upstream_4xx"    // relayed a backend 4xx verbatim
	outcomeUpstream5xx  = "upstream_5xx"    // relayed a backend 5xx verbatim
	outcomeTransportErr = "transport_error" // attempt never produced a response, or the backend died mid-body
	outcomeClientGone   = "client_gone"     // the client canceled or disconnected mid-attempt
)

// What no deployment, test or benchmark sets differently is a constant.
const (
	replicas      = 2               // fallback ladder depth: distinct ring members tried per key
	vnodes        = 128             // virtual nodes per ring member
	probeTimeout  = 2 * time.Second // bound on one /readyz probe
	etagTableSize = 4096            // (routeKey → ETag) entries, evicted LRU
)

// Config configures a Router. Zero values select the defaults noted
// on each field.
type Config struct {
	// Backends are the pi2md base URLs ("http://host:port"); at least
	// one is required. Trailing slashes are stripped.
	Backends []string
	// ProbeInterval is the mean health-probe period per backend; the
	// actual period is jittered to [0.5,1.5)× so probes across backends
	// and routers never phase-lock. Default 1s.
	ProbeInterval time.Duration
	// FailThreshold is the consecutive probe (or proxy transport)
	// failure count that ejects a backend from the ring. One successful
	// probe rejoins it. Default 3.
	FailThreshold int
	// MaxRequestBytes caps the buffered request body, mirroring the
	// backend's own cap. Default 64 MiB.
	MaxRequestBytes int64
	// Transport performs backend HTTP round trips for both proxying
	// and probing — tests inject partitions here. Default
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Jitter returns uniform [0,1) samples for probe scheduling and
	// Retry-After spreading; nil selects math/rand. Tests pin it.
	Jitter func() float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = time.Second
	}
	if out.FailThreshold <= 0 {
		out.FailThreshold = 3
	}
	if out.MaxRequestBytes <= 0 {
		out.MaxRequestBytes = 64 << 20
	}
	if out.Transport == nil {
		out.Transport = http.DefaultTransport
	}
	if out.Jitter == nil {
		out.Jitter = rand.Float64
	}
	return out
}

// backendState is one configured backend's health ledger, guarded by
// Router.mu. A backend starts unhealthy — it earns ring membership
// with its first successful probe, so a router booting against a dead
// fleet never routes into the void (beyond the fail-open path).
type backendState struct {
	name    string // normalized base URL
	healthy bool
	fails   int // consecutive failures (probe or proxy transport)
	probes  int64
	lastErr string
}

// Router is the distributed meshing tier: consistent-hash routing of
// (image key, variant) onto healthy pi2md backends, with health-probed
// membership, a buffering proxy with replica fallback, and its own
// metrics registry.
type Router struct {
	cfg   Config
	start time.Time

	mu       sync.Mutex
	backends map[string]*backendState
	order    []string // sorted backend names
	ring     *Ring    // healthy members only; empty ⇒ fail open to allRing
	allRing  *Ring    // every configured member, fixed at construction

	// etags remembers which backend last served each route key and with
	// what entity — the state behind local 304s and replica cache reads.
	etags *etagTable

	// uploads keys a buffered upload seen before without hashing it; its
	// counts are unexported (no pi2mr_ family), /v1/stats shows its size.
	uploads *wire.UploadKeys

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool

	reg             *metrics.Registry
	mBackendHealthy *metrics.GaugeVec
	mProxied        *metrics.CounterVec // pi2mr_proxied_jobs_total{backend,outcome}
	mRebalances     *metrics.Counter
	mRingMembers    *metrics.Gauge
	mJobs           *metrics.Counter
	mCompleted      *metrics.Counter
	mFailed         *metrics.Counter
	mProbeFailures  *metrics.Counter
	mProxySeconds   *metrics.Histogram
	mReplicaHits    *metrics.Counter
	mReplicaMisses  *metrics.Counter
	mETag304        *metrics.Counter
	mDrains         *metrics.Counter
	mRetries        *metrics.Counter
}

// New builds a Router over the configured backends. Call Start to
// begin health probing; until a backend passes a probe the router
// fails open, spreading attempts across all configured members.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: at least one backend is required")
	}
	r := &Router{
		cfg:      cfg,
		start:    time.Now(),
		backends: make(map[string]*backendState, len(cfg.Backends)),
		etags:    newETagTable(etagTableSize),
		uploads:  wire.NewUploadKeys(new(metrics.Counter), new(metrics.Counter), new(metrics.Counter), new(metrics.Gauge)),
		stop:     make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		name := normalizeBackend(b)
		if name == "" {
			return nil, fmt.Errorf("router: empty backend URL")
		}
		if _, dup := r.backends[name]; dup {
			return nil, fmt.Errorf("router: duplicate backend %q", name)
		}
		r.backends[name] = &backendState{name: name}
		r.order = append(r.order, name)
	}
	sort.Strings(r.order)
	r.allRing = NewRing(r.order, vnodes)
	r.ring = NewRing(nil, vnodes)

	reg := metrics.NewRegistry()
	r.reg = reg
	r.mBackendHealthy = reg.GaugeVec("pi2mr_backend_healthy",
		"Whether the backend is in the routing ring (1) or ejected (0).", "backend")
	r.mProxied = reg.CounterVec("pi2mr_proxied_jobs_total",
		"Proxy attempts by backend and outcome.", "backend", "outcome")
	r.mRebalances = reg.Counter("pi2mr_ring_rebalances_total",
		"Ring rebuilds caused by membership changes (ejections and rejoins).")
	r.mRingMembers = reg.Gauge("pi2mr_ring_members",
		"Healthy members currently in the routing ring.")
	r.mJobs = reg.Counter("pi2mr_jobs_total",
		"Proxy jobs accepted for routing. Always equals completed + failed once idle.")
	r.mCompleted = reg.Counter("pi2mr_completed_jobs_total",
		"Jobs answered with a relayed backend response (any status).")
	r.mFailed = reg.Counter("pi2mr_failed_jobs_total",
		"Jobs answered with a router-originated error envelope.")
	r.mProbeFailures = reg.Counter("pi2mr_probe_failures_total",
		"Health probes that failed (timeout, non-200, or injected drop).")
	r.mProxySeconds = reg.Histogram("pi2mr_proxy_seconds",
		"End-to-end proxy latency, first byte in to last byte relayed.",
		[]float64{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10, 30, 120})
	r.mReplicaHits = reg.Counter("pi2mr_replica_cache_hits_total",
		"Cache reads answered 200 or 304 by a backend other than the key's recorded server, or on a failover attempt.")
	r.mReplicaMisses = reg.Counter("pi2mr_replica_cache_misses_total",
		"Replica cache reads answered 404 cache_miss (the upload followed to the same backend).")
	r.mETag304 = reg.Counter("pi2mr_etag_304_total",
		"Conditional requests answered 304 from the router's ETag table without a backend round trip.")
	r.mDrains = reg.Counter("pi2mr_planned_drains_total",
		"Planned backend drains executed through POST /v1/drain.")
	r.mRetries = reg.Counter("pi2mr_retries_total",
		"Failover attempts: backend attempts beyond a request's first, each a cache read, a forward, or both.")
	for _, name := range r.order {
		r.mBackendHealthy.With(name).Set(0)
	}
	return r, nil
}

// normalizeBackend canonicalizes a backend base URL as configured or as
// named to /v1/drain: surrounding space and trailing slashes stripped,
// http:// assumed. Empty stays empty.
func normalizeBackend(s string) string {
	name := strings.TrimRight(strings.TrimSpace(s), "/")
	if name != "" && !strings.Contains(name, "://") {
		name = "http://" + name
	}
	return name
}

// Start launches one health-probe loop per backend.
func (r *Router) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return
	}
	r.started = true
	for _, name := range r.order {
		r.wg.Add(1)
		go r.probeLoop(name)
	}
}

// Stop halts probing and waits for the probe loops to exit. In-flight
// proxied requests are unaffected (the surrounding http.Server owns
// their lifecycle).
func (r *Router) Stop() {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return
	}
	r.started = false
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
}

// probeLoop probes one backend forever at a jittered period: an
// immediate first probe (so a healthy fleet is routable right after
// Start), then [0.5,1.5)× ProbeInterval between probes so probes from
// many routers against one backend decorrelate.
func (r *Router) probeLoop(name string) {
	defer r.wg.Done()
	for {
		r.ProbeOnce(name)
		d := time.Duration((0.5 + r.cfg.Jitter()) * float64(r.cfg.ProbeInterval))
		select {
		case <-r.stop:
			return
		case <-time.After(d):
		}
	}
}

// ProbeOnce runs a single health probe of the named backend and
// applies the result to ring membership. Exported so tests can drive
// membership deterministically without waiting out probe intervals.
func (r *Router) ProbeOnce(name string) {
	ok, errStr := r.checkBackend(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.backends[name]
	if b == nil {
		return
	}
	b.probes++
	b.lastErr = errStr
	if ok {
		b.fails = 0
		if !b.healthy {
			b.healthy = true
			r.rebuildRingLocked()
		}
		return
	}
	r.mProbeFailures.Inc()
	r.failLocked(b)
}

// checkBackend performs the /readyz round trip. The injected
// ProbeFail point models a dropped probe (network loss), not a sick
// backend — it fails without contacting the node.
func (r *Router) checkBackend(name string) (bool, string) {
	if faultinject.Fire(faultinject.ProbeFail) {
		return false, "injected probe drop"
	}
	req, err := http.NewRequest(http.MethodGet, name+"/readyz", nil)
	if err != nil {
		return false, err.Error()
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	resp, err := r.cfg.Transport.RoundTrip(req.WithContext(ctx))
	if err != nil {
		return false, err.Error()
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("readyz status %d", resp.StatusCode)
	}
	return true, ""
}

// failLocked records one failure against b and ejects it from the
// ring once the consecutive count crosses the threshold. Shared by
// the prober and the proxy path, so a backend that dies under traffic
// is ejected by the very requests that discover it, not only by the
// next few probes.
func (r *Router) failLocked(b *backendState) {
	b.fails++
	if b.healthy && b.fails >= r.cfg.FailThreshold {
		b.healthy = false
		r.rebuildRingLocked()
	}
}

// rebuildRingLocked swaps in a new ring over the currently healthy
// set. Callers ensure membership actually changed (transitions only),
// so every call is a real rebalance.
func (r *Router) rebuildRingLocked() {
	healthy := make([]string, 0, len(r.order))
	for _, name := range r.order {
		b := r.backends[name]
		if b.healthy {
			healthy = append(healthy, name)
		}
		v := int64(0)
		if b.healthy {
			v = 1
		}
		r.mBackendHealthy.With(name).Set(v)
	}
	r.ring = NewRing(healthy, vnodes)
	r.mRingMembers.Set(int64(len(healthy)))
	r.mRebalances.Inc()
}

// HealthyBackends returns the sorted healthy member list.
func (r *Router) HealthyBackends() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Members()
}

// candidates returns the fallback ladder for key: the ring replicas
// over the healthy set, or — fail open — over every configured
// backend when nothing is healthy (a booting router, or a fleet-wide
// probe outage that the backends themselves may have survived).
func (r *Router) candidates(key string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring.Size() == 0 {
		return r.allRing.Replicas(key, r.allRing.Size())
	}
	return r.ring.Replicas(key, replicas)
}

// ejectBackend removes name from the healthy ring immediately — the
// planned-drain path, where waiting FailThreshold probe periods for the
// now-draining backend's readyz 503s to accumulate would route new
// work into a node that already said goodbye. The backend's probe loop
// keeps running; if it ever answers ready again (drain aborted, process
// restarted) one successful probe rejoins it as usual.
func (r *Router) ejectBackend(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.backends[name]
	if b == nil {
		return
	}
	b.fails = r.cfg.FailThreshold
	b.lastErr = "planned drain"
	if b.healthy {
		b.healthy = false
		r.rebuildRingLocked()
	}
}
