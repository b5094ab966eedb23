package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/wire"
)

// job is one request on its way through walk: what its handler parsed
// out of it going in, what the walk decided coming out.
type job struct {
	key     string             // image identity: the upload's full SHA-256
	variant string             // canonical tuning knobs (MeshSpec.Variant)
	tune    func(*core.Config) // the same knobs as a per-run hook

	// The image arrives decoded (MeshSnapshot) or as the uploaded bytes,
	// which are parsed only once the cache has missed.
	image *img.Image
	body  []byte

	// HTTP-only inputs; zero through MeshSnapshot.
	format      string         // entity format of the reply; "" = the caller wants the snapshot, not its encoding
	ifNoneMatch string         // If-None-Match header
	cacheOnly   bool           // answer from the result cache or not at all
	timeout     time.Duration  // the spec's own deadline (0 = none asked)
	spec        *wire.MeshSpec // /v1/mesh only: the knobs the brownout controller may rewrite

	tier int // out: brownout tier the job was rewritten to (0 = as asked)
}

// notModified ends the walk at the conditional: the client already
// holds entity.
type notModified struct{ entity string }

func (*notModified) Error() string { return "serve: not modified" }

// flight is one single-flight coalescing group: the leader executes
// the run, followers subscribe to done and share the outcome. members
// counts everyone attached (leader included) and is guarded by the
// server's flightMu; out/err are written once, before done closes,
// and read only after.
type flight struct {
	done    chan struct{}
	out     *SnapshotResult
	err     error
	members int
}

// coalesceKey joins the image identity with the tuning variant so
// only jobs requesting the same mesh (same input and same quality
// knobs) can share a run. The response format is deliberately not
// part of the key: encoding happens per-waiter from the shared
// snapshot.
func coalesceKey(key, variant string) string {
	if variant == "" {
		return key
	}
	return key + "|" + variant
}

// MeshSnapshot runs one mesh job end to end — cache, admission,
// queueing, the run under the job deadline — and returns the result as
// a lease-independent snapshot: the walk, entered with an image already
// decoded. key is the image's identity (non-empty; ImageKey of the
// upload), variant a canonical encoding of the per-job tuning; jobs
// agreeing on (key, variant) are coalesced: the first becomes the
// leader and runs, later arrivals subscribe to its outcome without
// consuming a pool session, up to Config.CoalesceMax members per flight
// (a full flight stops accepting and a fresh one forms).
//
// Followers receive the leader's SnapshotResult with their own
// serving metadata (Coalesced=true, their own queue wait); the
// Snapshot pointer is shared and read-only. A follower whose context
// ends before the leader finishes detaches with ErrDeadline or
// ErrCanceled; a leader that fails fans its error out to every
// follower.
func (s *Server) MeshSnapshot(ctx context.Context, key, variant string, image *img.Image, tune func(*core.Config)) (*SnapshotResult, error) {
	return s.walk(ctx, &job{key: key, variant: variant, image: image, tune: tune})
}

// walk is the one path a request takes through the server. /v1/mesh,
// /v1/simulate's mesh stage, cache-only requests, GET /v1/cache probes
// and MeshSnapshot all enter here, after the handler has read and capped
// the body and derived key and variant, and take the same steps in the
// same order (DESIGN.md "The request walk" numbers them). It reports how
// the job ended — a snapshot, *notModified, or an error writeMeshError
// maps — and leaves encoding to the caller.
func (s *Server) walk(ctx context.Context, j *job) (*SnapshotResult, error) {
	// Index: the one store lookup of a job that replies with an encoded
	// entity. It counts the request's hit and refreshes the pair's
	// recency, whichever of the next steps answers it.
	var etag, tag string
	if j.format != "" && s.cache != nil {
		if etag, _ = s.cache.ETag(j.key, j.variant); etag != "" {
			tag = wire.EntityTag(etag, j.format)
		}
	}
	// Conditional: answered from the index alone — no decode, no blob
	// read, no session.
	if tag != "" && j.ifNoneMatch != "" && wire.ETagMatch(j.ifNoneMatch, tag) {
		return nil, &notModified{tag}
	}
	// Drain gate. Cache-only reads pass: a draining node stays a read
	// replica until the process exits.
	if !j.cacheOnly && s.draining.Load() {
		s.mRejected.With("draining").Inc()
		return nil, ErrDraining
	}
	// The cache, ahead of all admission machinery: a hit can never be
	// rejected for capacity and never trips or probes a breaker. Memory
	// first — only for a pair the index holds now, and only what its
	// verified blob encoded to the last time it was read.
	if tag != "" {
		if ent, ok := s.entities.get(tag); ok {
			return s.cacheServed(j, &SnapshotResult{ETag: etag, entity: ent}, ent.run), nil
		}
	}
	if sr, ok := s.cachedSnapshot(j, tag != ""); ok {
		return sr, nil
	}
	if j.cacheOnly {
		s.mCacheOnlyMiss.Inc()
		return nil, &requestError{http.StatusNotFound, wire.CodeCacheMiss,
			fmt.Sprintf("no cached result for image %.16s… variant %q", j.key, j.variant)}
	}
	if j.image == nil {
		var err error
		if j.image, err = s.decodeImage(j.key, j.body); err != nil {
			return nil, &requestError{http.StatusBadRequest, wire.CodeBadRequest, "decoding image: " + err.Error()}
		}
	}
	// Every job runs under a deadline (queue wait + run): the spec's, the
	// caller's, or the server default. The watchdog relies on it.
	timeout := j.timeout
	if _, ok := ctx.Deadline(); !ok && timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// Brownout: under queue or deadline pressure, rewrite the spec to a
	// degraded tier instead of letting the job ride into a 429/503. It
	// comes after the lookup — a cached full-quality result is both
	// better and cheaper than any degraded re-mesh — and the rewritten
	// variant is an identity of its own: its own cache entry, its own
	// flight.
	if j.spec != nil && s.brownout != nil {
		spec, tier, err := s.applyBrownout(ctx, *j.spec)
		if err != nil {
			return nil, err
		}
		if tier > 0 {
			j.tier, j.variant, j.tune = tier, spec.Variant(), tune(&spec)
			if sr, ok := s.cachedSnapshot(j, false); ok {
				return sr, nil
			}
		}
	}
	if faultinject.Fire(faultinject.QueueFull) {
		s.mRejected.With("queue_full").Inc()
		return nil, ErrQueueFull
	}
	s.inflight.Add(1)
	defer s.inflight.Done()

	// Flight and breaker, under one lock: both decide who may lead a run
	// for this (key, variant). Join before consulting the breaker —
	// followers don't consume a session, and riding an in-flight
	// (possibly half-open probe) run is always safe.
	ckey := coalesceKey(j.key, j.variant)
	s.flightMu.Lock()
	if f, ok := s.flights[ckey]; ok && f.members < s.cfg.CoalesceMax {
		f.members++
		s.flightMu.Unlock()
		return s.joinFlight(ctx, j.key, f)
	}
	// Leading: an open breaker fast-fails without touching the pool.
	if ok, retry := s.breakers.admitLocked(ckey, time.Now()); !ok {
		s.flightMu.Unlock()
		s.mRejected.With("breaker_open").Inc()
		return nil, &BreakerOpenError{Key: ckey, RetryAfter: retry}
	}
	// A still-running full flight stays reachable by its members but
	// is unlinked from the table, so the next arrival starts over here.
	f := &flight{done: make(chan struct{}), members: 1}
	s.flights[ckey] = f
	s.flightMu.Unlock()

	f.out, f.err = s.runOnce(ctx, j)

	// Report to the breaker. Capacity rejections and caller
	// cancellations say nothing about whether the key is poisoned, but a
	// half-open probe that ends in one still returns its probe slot so
	// the next arrival can try.
	neutral := errors.Is(f.err, ErrQueueFull) || errors.Is(f.err, ErrDeadline) ||
		errors.Is(f.err, ErrCanceled) || errors.Is(f.err, ErrPoolClosed)
	s.flightMu.Lock()
	if neutral {
		s.breakers.releaseProbeLocked(ckey)
	} else if s.breakers.reportLocked(ckey, f.err == nil, time.Now()) {
		s.mBreakerTrips.Inc()
	}
	if s.flights[ckey] == f {
		delete(s.flights, ckey)
	}
	s.flightMu.Unlock()
	close(f.done)
	return f.out, f.err
}

// cachedSnapshot answers a job from the persistent result cache, if it
// can — the only place a request reads a blob, verified as it is read.
// counted says the walk's index lookup already counted this request's
// hit.
func (s *Server) cachedSnapshot(j *job, counted bool) (*SnapshotResult, bool) {
	if s.cache == nil {
		return nil, false
	}
	read := s.cache.Get
	if counted {
		read = s.cache.Read
	}
	snap, etag, ok := read(j.key, j.variant)
	if !ok {
		return nil, false
	}
	return s.cacheServed(j, &SnapshotResult{Snapshot: snap, ETag: etag}, snap.Summary), true
}

// cacheServed books a job answered from the cache, from disk or from
// memory alike: it never touches the pool, the queue, or the key's
// breaker, and counts as accepted + completed (the caller got a mesh)
// plus cacheServed, so the run-count invariant stays
// runs == accepted − coalesced − abandoned − cacheServed.
func (s *Server) cacheServed(j *job, sr *SnapshotResult, run core.RunSummary) *SnapshotResult {
	s.mAccepted.Inc()
	s.mCompleted.Inc()
	s.mCacheServed.Inc()
	if j.cacheOnly {
		s.mCacheOnlyServed.Inc()
	}
	sr.Summary = JobSummary{ImageKey: j.key, CacheHit: true, Run: run}
	s.recordRun(sr.Summary)
	return sr
}

// recordRun appends to /v1/stats' ring of recent runs.
func (s *Server) recordRun(sum JobSummary) {
	s.lastMu.Lock()
	s.lastRuns = append(s.lastRuns, sum)
	if len(s.lastRuns) > 16 {
		s.lastRuns = s.lastRuns[len(s.lastRuns)-16:]
	}
	s.lastMu.Unlock()
}

// joinFlight waits for the flight's leader to finish and adapts the
// shared outcome to this follower: same snapshot, own metadata. A
// follower that gives up first (deadline or cancellation) detaches —
// the leader keeps running for the remaining members.
func (s *Server) joinFlight(jctx context.Context, key string, f *flight) (*SnapshotResult, error) {
	waitStart := time.Now()
	select {
	case <-jctx.Done():
		s.flightMu.Lock()
		f.members--
		s.flightMu.Unlock()
		return nil, s.rejectForCtx(jctx.Err())
	case <-f.done:
	}
	// Counted only now: a follower that detached above was never served
	// from the leader's run, and counting it would break
	// runs == accepted − coalesced − abandoned.
	s.mCoalesced.Inc()
	s.mAccepted.Inc()
	if f.err != nil {
		s.mFailed.Inc()
		return nil, fmt.Errorf("serve: coalesced run: %w", f.err)
	}
	s.mCompleted.Inc()
	sr := &SnapshotResult{
		Summary: JobSummary{
			ImageKey:    key,
			QueueWaitMs: float64(time.Since(waitStart)) / 1e6,
			EDTCacheHit: f.out.Summary.EDTCacheHit,
			WarmRun:     f.out.Summary.WarmRun,
			Coalesced:   true,
			Run:         f.out.Summary.Run,
		},
		Snapshot: f.out.Snapshot,
		ETag:     f.out.ETag,
	}
	return sr, nil
}

// supervise is the whole watchdog: it runs fn on its own goroutine and
// waits for it, and the limit is the deadline ctx already carries. fn
// is expected to honour ctx; one still going grace after ctx ended is
// given up on — finished is false, and done closes whenever fn does
// return, for a caller with something to reap.
func supervise(ctx context.Context, grace time.Duration, fn func()) (done <-chan struct{}, finished bool) {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		fn()
	}()
	select {
	case <-ch:
		return ch, true
	case <-ctx.Done():
	}
	t := time.NewTimer(grace)
	defer t.Stop()
	select {
	case <-ch:
		return ch, true
	case <-t.C:
		return ch, false
	}
}
