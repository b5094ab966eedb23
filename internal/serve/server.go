// Package serve is the serving layer of PI2M: a bounded pool of warm
// core.Sessions multiplexing concurrent image-to-mesh requests, a job
// admission controller with queue-depth and deadline rejection, and an
// HTTP surface (POST /v1/mesh, /healthz, /metrics). What it
// shares with the router — the wire contract and the metrics registry —
// lives in the leaf packages internal/wire and internal/metrics.
//
// The layering: Pool owns sessions and their checkout order; Server owns
// admission, the image cache, metrics and encoding; the HTTP handlers
// are a thin translation of Server errors into status codes. cmd/pi2md
// is the daemon wrapping a Server in an http.Server with graceful
// drain.
package serve

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Admission and execution errors; classify maps them to status codes
// and envelope codes (queue full → 429, draining/deadline → 503, caller
// cancellation → 499, bad input → 400).
var (
	// ErrQueueFull rejects a job because the wait queue is at capacity
	// (or the QueueFull fault point fired).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects a job because the server is shutting down.
	ErrDraining = errors.New("serve: server draining")
	// ErrDeadline rejects a job whose deadline expired before a
	// session became available.
	ErrDeadline = errors.New("serve: deadline expired before a session was available")
	// ErrCanceled rejects a job whose caller canceled it before a
	// session became available. Unlike ErrDeadline this is not a
	// server-capacity signal: the client went away, so the HTTP layer
	// answers 499 without a Retry-After.
	ErrCanceled = errors.New("serve: canceled by the caller before a session was available")
)

// ImageKey and NodeHeader are wire's, kept under these names for the
// benchmark harness, which imports them from here.
const NodeHeader = wire.NodeHeader

func ImageKey(body []byte) string { return wire.ImageKey(body) }

// Config parameterizes a Server.
type Config struct {
	// PoolSize is the number of warm sessions — the run concurrency
	// ceiling (default 2).
	PoolSize int
	// QueueDepth is the maximum number of admitted jobs waiting for a
	// session beyond the ones running — the pool's waiter bound; one more
	// is rejected with ErrQueueFull (default 16). A job that finds a free
	// session is admitted without counting against the queue.
	QueueDepth int
	// DefaultTimeout caps a job's total time (queue wait + run) when
	// the request does not carry its own deadline (default 60s).
	DefaultTimeout time.Duration
	// MaxRequestBytes caps the request body the HTTP layer will read
	// (default 64 MiB).
	MaxRequestBytes int64
	// Cache is the optional persistent result cache. When set, a
	// (image, variant) pair already stored is served from disk without
	// consuming a pool session, and every completed leader run is
	// persisted off-lease.
	Cache *cachestore.Store
	// Session is the configuration template every pool session runs
	// with. Its Image field is ignored.
	Session core.Config
}

// The serving values no deployment turns. A test that needs another
// sets the field holding it after NewServer.
const (
	// imageCacheEntries parsed uploads are kept: enough for a client
	// re-sending its last few images to reuse their distance transforms.
	imageCacheEntries = 8
	// imageCacheBytes bounds them at one byte per voxel — one 640³
	// volume.
	imageCacheBytes = 256 << 20
	// entityCacheBytes is the entity cache's budget — ≈ 230 scale-48 or
	// ≈ 30 scale-96 VTK bodies: it bounds what is held, and a hot set
	// beyond it degrades to the disk hit every hit was before.
	entityCacheBytes = 32 << 20
	// coalesceLimit jobs, leader included, may share one run: a full
	// flight bounds what one leader's failure fans out to.
	coalesceLimit = 32
	// solveTimeout caps a /v1/simulate solve, whatever budget the spec
	// asks for: the solve runs off-lease, so this bounds the CPU a
	// hostile spec can reserve, not session occupancy.
	solveTimeout = 30 * time.Second
	// brownoutHold of calm steps the brownout controller back up one
	// tier: long enough that a burst's tail does not flap a client
	// between qualities.
	brownoutHold = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 64 << 20
	}
	return c
}

// Server multiplexes mesh jobs over a session Pool with bounded
// queueing, per-job deadlines, single-flight coalescing, metrics, and
// graceful drain. Create one with NewServer, expose it with Handler,
// stop it with Drain.
type Server struct {
	cfg   Config
	pool  *Pool
	cache *cachestore.Store

	// nodeID is this process's stable serving identity: random at boot,
	// surfaced on every response as X-Pi2md-Node, so a
	// router (or an operator) can verify shard affinity end to end.
	nodeID string

	inflight sync.WaitGroup
	draining atomic.Bool

	// flights is the single-flight table: one entry per in-progress
	// (image key, tuning variant) pair; followers subscribe instead of
	// consuming a session.
	flightMu sync.Mutex
	flights  map[string]*flight

	// coalesceMax caps a flight's members, leader included (coalesceLimit;
	// 1 forbids joining).
	coalesceMax int

	// retryJitter randomizes the Retry-After hint (±20%) so
	// synchronized clients don't retry in lockstep; injectable for
	// deterministic tests.
	retryJitter func() float64

	// brownout is the adaptive quality controller; nil only where a test
	// turns it off after NewServer.
	brownout *brownoutController

	// imgCache retains parsed input images by image key, one byte per
	// voxel, once a key is seen for the second time, so a repeated
	// upload reuses its *img.Image pointer and can hit a session's
	// distance-transform cache while a one-shot upload retains nothing.
	// entities retains the encoded bodies of cache hits by entity tag
	// (see entity). uploads keys an upload seen before without hashing
	// it.
	imgCache *memCache[*img.Image]
	entities *memCache[*entity]
	uploads  *wire.UploadKeys

	// Metrics (the catalogue documented in DESIGN.md "Serving layer").
	reg              *metrics.Registry
	mRequests        *metrics.CounterVec // pi2md_http_requests_total{code}
	mAccepted        *metrics.Counter
	mCompleted       *metrics.Counter
	mFailed          *metrics.Counter
	mRejected        *metrics.CounterVec // pi2md_jobs_rejected_total{reason}
	mCoalesced       *metrics.Counter
	mQueueWait       *metrics.Histogram
	mRunSeconds      *metrics.Histogram
	mLeaseSeconds    *metrics.Histogram
	mSnapshotBytes   *metrics.Histogram
	mCells           *metrics.Counter
	mCellsPerSec     *metrics.Gauge
	mRollbacks       *metrics.Counter
	mAborted         *metrics.Counter
	mDeadlineAborts  *metrics.Counter
	mCacheServed     *metrics.Counter
	mCacheOnlyServed *metrics.Counter
	mCacheOnlyMiss   *metrics.Counter
	mSolveSeconds    *metrics.Histogram  // pi2md_solve_seconds
	mSolveIters      *metrics.Histogram  // pi2md_solve_iterations
	mSimJobs         *metrics.CounterVec // pi2md_simulate_jobs_total{outcome}
	mBrownedOut      *metrics.CounterVec // pi2md_browned_out_jobs_total{tier}

	// lastRuns is a ring of recent run summaries, read through Stats.
	lastMu   sync.Mutex
	lastRuns []JobSummary
}

// JobSummary is one served job: how it was answered and the run that
// produced its mesh.
type JobSummary struct {
	Coalesced bool
	CacheHit  bool
	Run       core.RunSummary
}

// NewServer validates the configuration, builds the pool and wires
// the metrics registry.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	pool, err := NewPool(cfg.PoolSize, cfg.QueueDepth, cfg.Session)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, pool: pool, cache: cfg.Cache, reg: metrics.NewRegistry(), nodeID: newNodeID()}
	s.flights = make(map[string]*flight)
	s.coalesceMax = coalesceLimit
	s.retryJitter = rand.Float64
	s.brownout = newBrownoutController(brownoutLadder, brownoutHold, cfg.QueueDepth)

	r := s.reg
	s.mRequests = r.CounterVec("pi2md_http_requests_total",
		"HTTP requests served, by status code.", "code")
	s.mAccepted = r.Counter("pi2md_jobs_accepted_total",
		"Mesh jobs that reached a session (leaders) or a shared run's outcome (followers).")
	s.mCompleted = r.Counter("pi2md_jobs_completed_total",
		"Mesh jobs whose caller received a mesh (completed runs, coalesced followers included).")
	s.mFailed = r.Counter("pi2md_jobs_failed_total",
		"Admitted mesh jobs that ended without a mesh (aborts, run errors, fanned-out leader failures).")
	s.mRejected = r.CounterVec("pi2md_jobs_rejected_total",
		"Mesh jobs rejected by admission control, by reason.", "reason")
	s.mCoalesced = r.Counter("pi2md_coalesced_jobs_total",
		"Mesh jobs served from another job's run via single-flight coalescing (followers).")
	r.GaugeFunc("pi2md_queue_depth",
		"Admitted jobs currently waiting for a session.",
		func() float64 { return float64(s.pool.Waiters()) })
	r.GaugeFunc("pi2md_pool_sessions",
		"Sessions in the pool.",
		func() float64 { return float64(s.pool.Size()) })
	poolStat := func(pick func(PoolStats) int64) func() float64 {
		return func() float64 { return float64(pick(s.pool.Stats())) }
	}
	r.GaugeFunc("pi2md_pool_busy_sessions",
		"Sessions currently leased to a running job.",
		poolStat(func(st PoolStats) int64 { return int64(st.Busy) }))
	s.mQueueWait = r.Histogram("pi2md_queue_wait_seconds",
		"Time admitted jobs spent waiting for a session.",
		[]float64{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10, 30})
	s.mRunSeconds = r.Histogram("pi2md_run_seconds",
		"Wall time of the meshing run itself.",
		[]float64{0.01, 0.05, 0.2, 1, 5, 20, 60})
	s.mLeaseSeconds = r.Histogram("pi2md_lease_seconds",
		"Time a job held a pool session (checkout to release). Response encoding happens off-lease from a snapshot and is excluded.",
		[]float64{0.01, 0.05, 0.2, 1, 5, 20, 60})
	s.mSnapshotBytes = r.Histogram("pi2md_snapshot_bytes",
		"Size of the mesh snapshots copied out of the lease window.",
		[]float64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20})
	s.mCells = r.Counter("pi2md_cells_total",
		"Tetrahedra generated across all completed runs (coalesced fan-out not double-counted).")
	s.mCellsPerSec = r.Gauge("pi2md_cells_per_second",
		"Generation rate of the most recent completed job.")
	s.mRollbacks = r.Counter("pi2md_rollbacks_total",
		"Speculative-operation rollbacks across all runs.")
	s.mAborted = r.Counter("pi2md_aborted_runs_total",
		"Runs that aborted (cancellation, panic, livelock).")
	r.CounterFunc("pi2md_edt_cache_hits_total",
		"Runs that reused a session's cached distance transform.",
		poolStat(func(st PoolStats) int64 { return int64(st.Sessions.WarmEDTHits) }))
	r.CounterFunc("pi2md_warm_runs_total",
		"Runs that reused a session's warm arenas.",
		poolStat(func(st PoolStats) int64 { return int64(st.Sessions.WarmRuns) }))
	memCacheEvents := r.CounterVec("pi2md_mem_cache_events_total",
		"In-process cache events — cache: image (parsed uploads, by image key), entity (encoded bodies of cache hits, by entity tag) or upload (image keys of repeated uploads, by their bytes); event: hit, miss (the image was parsed, the body encoded, the upload hashed) or evict (dropped by the LRU bounds).", "cache", "event")
	memCacheBytes := r.GaugeVec("pi2md_mem_cache_bytes",
		"Bytes resident in an in-process cache (image: one per voxel; entity: body bytes; upload: upload buffer capacity).", "cache")
	s.imgCache = newMemCache[*img.Image]("image", imageCacheBytes, imageCacheEntries, true, memCacheEvents, memCacheBytes)
	s.entities = newMemCache[*entity]("entity", entityCacheBytes, 0, false, memCacheEvents, memCacheBytes)
	s.uploads = wire.NewUploadKeys(memCacheEvents.With("upload", "hit"), memCacheEvents.With("upload", "miss"),
		memCacheEvents.With("upload", "evict"), memCacheBytes.With("upload"))
	r.CounterFunc("pi2md_pool_evictions_total",
		"Idle sessions evicted to release their retained memory.",
		poolStat(func(st PoolStats) int64 { return st.Evictions }))
	s.mDeadlineAborts = r.Counter("pi2md_deadline_aborts_total",
		"Runs still going when their job deadline ended their context.")
	r.CounterFunc("pi2md_sessions_quarantined_total",
		"Bad sessions replaced with a fresh one at release (failed, panicked, or aborted runs).",
		poolStat(func(st PoolStats) int64 { return st.Quarantines }))
	s.mCacheServed = r.Counter("pi2md_cache_served_jobs_total",
		"Mesh jobs answered from the persistent result cache without consuming a session.")
	s.mCacheOnlyServed = r.Counter("pi2md_cache_only_served_total",
		"Cache-only reads (GET /v1/cache) answered from the result cache.")
	s.mCacheOnlyMiss = r.Counter("pi2md_cache_only_miss_total",
		"Cache-only reads answered 404 cache_miss because the pair is not cached.")
	s.mSolveSeconds = r.Histogram("pi2md_solve_seconds",
		"Wall time of the FEM solve stage of /v1/simulate (assembly + CG), off-lease.",
		[]float64{0.001, 0.01, 0.05, 0.2, 1, 5, 15, 30})
	s.mSolveIters = r.Histogram("pi2md_solve_iterations",
		"CG iterations of completed /v1/simulate solves.",
		[]float64{10, 30, 100, 300, 1000, 3000, 10000})
	s.mSimJobs = r.CounterVec("pi2md_simulate_jobs_total",
		"Simulation jobs by outcome: ok, bad_request (pre-mesh), mesh_failed, and the post-mesh failures (bad_bc, solve_failed, canceled, deadline).", "outcome")
	s.mBrownedOut = r.CounterVec("pi2md_browned_out_jobs_total",
		"Mesh jobs served at a degraded quality tier by the brownout controller, by tier.", "tier")
	r.GaugeFunc("pi2md_brownout_tier",
		"Current position of the brownout controller's degradation ladder (0 = full quality).",
		func() float64 {
			if s.brownout == nil {
				return 0
			}
			return float64(s.brownout.Tier())
		})
	cacheStat := func(pick func(cachestore.Stats) float64) func() float64 {
		return func() float64 {
			if s.cache == nil {
				return 0
			}
			return pick(s.cache.Stats())
		}
	}
	r.CounterFunc("pi2md_cache_hits_total",
		"Persistent-cache lookups answered from a verified entry (index-only ETag lookups included).",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.Hits) }))
	r.CounterFunc("pi2md_cache_misses_total",
		"Persistent-cache lookups that found no servable entry (corrupt entries count here, never as hits).",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.Misses) }))
	r.CounterFunc("pi2md_cache_writes_total",
		"Snapshots persisted into the result cache as durable blobs.",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.Writes) }))
	r.CounterFunc("pi2md_cache_evictions_total",
		"Result-cache entries evicted by the LRU byte budget.",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.Evictions) }))
	r.CounterFunc("pi2md_cache_corrupt_total",
		"Cached blobs that failed checksum verification on read and were quarantined.",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.Corrupt) }))
	r.GaugeFunc("pi2md_cache_bytes",
		"Bytes accounted to live result-cache entries.",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.Bytes) }))
	r.CounterFunc("pi2md_cache_write_errors_total",
		"Result-cache blob writes the disk refused (ENOSPC, EIO); the pair was served but not cached.",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.WriteErrors) }))
	r.CounterFunc("pi2md_cache_adopted_total",
		"Un-indexed blobs found at their deterministic path (written by a peer sharing the directory) verified and adopted at read time.",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.Adopted) }))
	r.CounterFunc("pi2md_fsck_quarantined_total",
		"Blobs the boot fsck moved to quarantine for failing verification.",
		cacheStat(func(st cachestore.Stats) float64 { return float64(st.FsckQuarantined) }))
	return s, nil
}

// newNodeID draws the 8-byte random hex serving identity. Stability
// within one boot is the contract; two boots of the same binary get
// different identities, which is exactly what shard-affinity checks
// need (a restarted backend is a cold one).
func newNodeID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unreachable; fall back to a
		// time-derived identity rather than refusing to boot.
		return fmt.Sprintf("t%015x", time.Now().UnixNano()&0xffffffffffffff)
	}
	return hex.EncodeToString(b[:])
}

// NodeID returns this server's boot-stable serving identity.
func (s *Server) NodeID() string { return s.nodeID }

// Registry exposes the metrics registry (for /metrics and tests).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Pool exposes the session pool (for stats and eviction janitors).
func (s *Server) Pool() *Pool { return s.pool }

// decodeImage parses body as NRRD through the image cache: the second
// parse of a body is admitted, and every later one returns that
// *img.Image, giving the leased session a chance to reuse its cached
// distance transform (which is keyed by image pointer identity). Racing
// parses of a body seen before converge on one pointer.
func (s *Server) decodeImage(key string, body []byte) (*img.Image, error) {
	if im, ok := s.imgCache.get(key); ok {
		return im, nil
	}
	im, err := img.ReadNRRD(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return s.imgCache.add(key, im, int64(im.NumVoxels())), nil
}

// SnapshotResult is the outcome a mesh job hands back: the serving
// metadata plus a MeshSnapshot copied out of the lease window, valid
// indefinitely — encode it, cache it, or hand it to another goroutine
// without holding any session. Coalesced followers share the leader's
// snapshot pointer; treat it as read-only.
type SnapshotResult struct {
	Summary  JobSummary
	Snapshot *core.MeshSnapshot
	// ETag is the persistent cache's entity identity for this snapshot
	// (hex CRC64 of the stored blob); empty when no cache is wired.
	ETag string

	// entity is set instead of Snapshot when an HTTP job was answered
	// from the entity cache: the reply is already encoded.
	entity *entity
}

// runOnce is the walk's tail for a leader — the one actual meshing run
// under admission control: a checkout (free sessions bypass the queue
// entirely, the pool bounds the waiters), the run under the job
// deadline, the snapshot copy-out that ends the lease
// before any encoding, and the off-lease persist into the result cache.
// Coalesced followers never reach this function.
func (s *Server) runOnce(jctx context.Context, j *job) (*SnapshotResult, error) {
	waitStart := time.Now()
	lease, err := s.pool.Checkout(jctx)
	wait := time.Since(waitStart)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("%w: %v", ctxKind(err), err)
		}
		return nil, err
	}
	j.accepted = true
	s.mQueueWait.Observe(wait.Seconds())

	// The lease window: released explicitly right after the snapshot
	// copy-out on success (the deferred release is the error path),
	// and its occupancy is observed exactly once.
	leaseStart := time.Now()
	released := false
	release := func() {
		if released {
			return
		}
		released = true
		lease.Release()
		s.mLeaseSeconds.Observe(time.Since(leaseStart).Seconds())
	}
	defer release()

	// Injectable stall between checkout and run: everyone queued
	// behind this session now waits longer (degradation under load).
	faultinject.Sleep(faultinject.SlowSession)

	runStart := time.Now()
	res, err := s.guardedRun(jctx, lease, j.image, j.tune)
	if errors.Is(jctx.Err(), context.DeadlineExceeded) {
		s.mDeadlineAborts.Inc()
	}
	s.mRunSeconds.Observe(time.Since(runStart).Seconds())
	if err != nil {
		// A run error says the engine gave up on this session's state (a
		// panic already marked it in guardedRun): replace it.
		lease.MarkBad()
		return nil, fmt.Errorf("serve: run: %w", err)
	}

	sum := res.Summary()
	s.mRollbacks.Add(sum.Rollbacks)
	if res.Status == core.StatusAborted {
		s.mAborted.Inc()
		if abortedByCaller(res) {
			// The caller's own deadline or cancellation cut the run
			// short mid-flight: the session cooperated and is healthy,
			// and the failure classifies like a pre-run rejection.
			return nil, fmt.Errorf("%w: run aborted mid-flight: %v", ctxKind(jctx.Err()), res.Err())
		}
		// Aborted for engine reasons (a panic, livelock): the session's
		// internal state is untrustworthy — replace it.
		lease.MarkBad()
		return nil, fmt.Errorf("serve: run aborted: %w", res.Err())
	}

	// Copy the final geometry out of the lease window, then release:
	// everything below — metrics, the persist, settle and response
	// encoding in the caller — runs off-lease while the session already
	// serves the next job.
	snap := res.Snapshot()
	release()
	s.mSnapshotBytes.Observe(float64(snap.SizeBytes()))

	s.mCells.Add(int64(sum.Elements))
	s.mCellsPerSec.Set(int64(sum.CellsPerSec))

	// Persist off-lease: the session already serves the next job. A
	// refused write is counted by the store and leaves the pair
	// uncached; it never fails a finished mesh.
	var etag string
	if s.cache != nil {
		etag, _ = s.cache.Put(j.key, j.variant, snap)
	}

	return &SnapshotResult{
		ETag:     etag,
		Summary:  JobSummary{Run: sum},
		Snapshot: snap,
	}, nil
}

// guardedRun executes the run itself behind a panic guard: a panic
// escaping the engine (or a tune hook) is converted into an error so
// no coalesced follower can hang on a never-closed flight, and the
// session — whose internal state the panic may have corrupted — is
// marked bad, to be replaced on release.
func (s *Server) guardedRun(ctx context.Context, lease *Lease, image *img.Image, tune func(*core.Config)) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			lease.MarkBad()
			err = fmt.Errorf("serve: run panicked: %v", r)
		}
	}()
	if faultinject.Fire(faultinject.RunPoisoned) {
		return nil, errors.New("serve: injected run-poisoned failure")
	}
	return lease.RunTuned(ctx, image, tune)
}

// abortedByCaller reports whether an aborted run was cut short first
// by its own context rather than by the engine (a panic, a stall) —
// the session cooperated, so it stays healthy.
func abortedByCaller(res *core.Result) bool {
	err := res.Err()
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// retryAfterSeconds derives the Retry-After hint for capacity
// rejections from the rejected waiter's actual queue position rather
// than a flat wait quantile: the median-lease wait estimate, monotone in
// queue depth — a rejection from a deep queue backs its client off
// longer than one from a queue that is barely over — then jittered and
// clamped by the shared policy.
func (s *Server) retryAfterSeconds() int {
	return wire.ClampRetryAfter(s.waitEstimate(int64(s.pool.Waiters()), 0.50), s.retryJitter)
}

// waitEstimate is the raw (unjittered, unclamped) wait in seconds of a
// job at queue position pos: it drains behind pos/PoolSize lease slots
// plus its own run, each taking the q-quantile lease. Retry-After reads
// it at the median, the brownout controller at the p90.
func (s *Server) waitEstimate(pos int64, q float64) float64 {
	return (float64(pos)/float64(s.cfg.PoolSize) + 1) * s.mLeaseSeconds.Quantile(q)
}

// Stats is what the job ledger keeps beyond /metrics' series: three
// of its counters and the ring of recent leader runs.
type Stats struct {
	Accepted    int64
	Coalesced   int64
	CacheServed int64
	RecentRuns  []JobSummary
}

// Stats snapshots the ledger's job counts and its recent-runs ring.
func (s *Server) Stats() Stats {
	s.lastMu.Lock()
	defer s.lastMu.Unlock()
	return Stats{
		Accepted:    s.mAccepted.Value(),
		Coalesced:   s.mCoalesced.Value(),
		CacheServed: s.mCacheServed.Value(),
		RecentRuns:  append([]JobSummary(nil), s.lastRuns...),
	}
}

// AnnounceDrain flips the server into draining mode — /readyz answers
// 503 and new mesh jobs are rejected with ErrDraining — and returns up
// to limit most-recently-used cached keys as the warm-state handoff
// list a router pre-warms its replica routing with before ejecting this
// node. Unlike Drain it does not wait for in-flight work or close the
// pool: the operator (or the process's own signal handler) still owns
// the actual shutdown, and cache-only reads keep being served for the
// whole drain window — a draining node is a read replica until the
// process exits.
func (s *Server) AnnounceDrain(limit int) []cachestore.KeyInfo {
	s.draining.Store(true)
	if s.cache == nil {
		return nil
	}
	keys := s.cache.KeysMRU()
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	return keys
}

// Drain gracefully shuts the server down: new jobs are rejected with
// ErrDraining, in-flight jobs (coalesced followers included) run to
// completion (bounded by ctx), and the pool is closed. It returns
// ctx.Err() if the wait was cut short (the pool is closed regardless).
// It writes nothing; the caller owns closing the cache store itself.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	if ctx == nil {
		<-done
	} else {
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.pool.Close()
	return err
}
