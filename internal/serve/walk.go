package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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

	// The uploaded bytes, decoded into image only once the cache has
	// missed.
	body  []byte
	image *img.Image

	// How the answer is wanted; /v1/simulate's mesh stage sets only
	// timeout.
	format      string         // entity format of the reply; "" = the caller wants the snapshot, not its encoding
	ifNoneMatch string         // If-None-Match header
	cacheOnly   bool           // answer from the result cache or not at all
	timeout     time.Duration  // the spec's own deadline (0 = none asked)
	spec        *wire.MeshSpec // /v1/mesh only: the knobs the brownout controller may rewrite

	// Facts the walk records as it learns them; settle books them.
	tier      int  // brownout tier the job was rewritten to (0 = as asked)
	accepted  bool // reached a session, a finished flight's outcome, or the cache
	coalesced bool // a follower that received its leader's outcome
}

// notModified ends the walk at the conditional: the client already
// holds entity.
type notModified struct{ entity string }

func (*notModified) Error() string { return "serve: not modified" }

// stageError is a typed ending (ErrCanceled, ErrDeadline) in the words
// of the stage that met it: it classifies as kind and reads as msg.
type stageError struct {
	kind error
	msg  string
}

func (e *stageError) Error() string { return e.msg }
func (e *stageError) Unwrap() error { return e.kind }

// classify is the one map from how a job ended to what it is answered
// with: the HTTP status and the envelope code ("" for a 200 or a 304).
// writeMeshError, settle and endSimulation all read it, so the wire, the
// job ledger and the simulate outcome cannot disagree about an ending.
func classify(err error) (status int, code string) {
	var reqErr *requestError
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.As(err, new(*notModified)):
		return http.StatusNotModified, ""
	case errors.As(err, &reqErr):
		return reqErr.status, reqErr.code
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, wire.CodeQueueFull
	case errors.Is(err, ErrDeadline):
		return http.StatusServiceUnavailable, wire.CodeDeadline
	case errors.Is(err, ErrCanceled):
		return wire.StatusClientClosedRequest, wire.CodeCanceled
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, wire.CodeOverloaded
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, wire.CodeDraining
	case errors.Is(err, ErrPoolClosed), errors.Is(err, core.ErrSessionBusy):
		return http.StatusServiceUnavailable, wire.CodeUnavailable
	}
	return http.StatusInternalServerError, wire.CodeInternal
}

// ctxKind names a context's end as a job ending: caller cancellation is
// ErrCanceled (the client went away: 499, no Retry-After), anything else
// ErrDeadline (a capacity signal worth retrying). Conflating the two
// inflates the deadline count and tells dead clients to retry.
func ctxKind(err error) error {
	if errors.Is(err, context.Canceled) {
		return ErrCanceled
	}
	return ErrDeadline
}

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

// walk is the one path a request takes through the server. /v1/mesh,
// /v1/simulate's mesh stage and GET /v1/cache probes all enter here,
// after the handler has read and capped the body and derived key and
// variant, and take the same steps in the same order (DESIGN.md "The
// request walk" numbers them). It reports how the job ended — a
// snapshot, *notModified, or an error classify maps — books it once on
// the way out (settle), and leaves encoding to the caller.
//
// Jobs agreeing on (key, variant) coalesce: the first leads and runs,
// later arrivals join its flight without a session, up to coalesceMax
// members (a full flight takes no more and the next arrival leads a
// fresh one). A follower gets the leader's snapshot pointer, shared and
// read-only, under its own serving metadata; one whose context ends
// first detaches with ErrDeadline or ErrCanceled, and a leader's failure
// fans out to every follower.
func (s *Server) walk(ctx context.Context, j *job) (sr *SnapshotResult, err error) {
	held := false // in Drain's wait group, released only once the job is booked
	defer func() {
		s.settle(j, sr, err)
		if held {
			s.inflight.Done()
		}
	}()
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
		return nil, ErrDraining
	}
	// The cache, ahead of all admission machinery: a hit can never be
	// rejected for capacity. Memory first — only for a pair the index
	// holds now, and only what its verified blob encoded to the last
	// time it was read.
	if tag != "" {
		if ent, ok := s.entities.get(tag); ok {
			return cacheServed(j, &SnapshotResult{ETag: etag, entity: ent}, ent.run), nil
		}
	}
	if sr, ok := s.cachedSnapshot(j, tag != ""); ok {
		return sr, nil
	}
	if j.cacheOnly {
		return nil, &requestError{http.StatusNotFound, wire.CodeCacheMiss,
			fmt.Sprintf("no cached result for image %.16s… variant %q", j.key, j.variant)}
	}
	if j.image, err = s.decodeImage(j.key, j.body); err != nil {
		return nil, badRequest("decoding image: %v", err)
	}
	// Every job runs under a deadline (queue wait + run): the spec's, the
	// caller's, or the server default.
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
		return nil, ErrQueueFull
	}
	s.inflight.Add(1)
	held = true

	// Flight: join a run in progress for this (key, variant) — a
	// follower consumes no session — or lead a new one.
	ckey := coalesceKey(j.key, j.variant)
	s.flightMu.Lock()
	if f, ok := s.flights[ckey]; ok && f.members < s.coalesceMax {
		f.members++
		s.flightMu.Unlock()
		return s.joinFlight(ctx, j, f)
	}
	// A still-running full flight stays reachable by its members but
	// is unlinked from the table, so the next arrival starts over here.
	f := &flight{done: make(chan struct{}), members: 1}
	s.flights[ckey] = f
	s.flightMu.Unlock()

	f.out, f.err = s.runOnce(ctx, j)

	s.flightMu.Lock()
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
	return cacheServed(j, &SnapshotResult{Snapshot: snap, ETag: etag}, snap.Summary), true
}

// cacheServed is a job answered from the cache, from disk or from memory
// alike: accepted without touching the pool or the queue.
func cacheServed(j *job, sr *SnapshotResult, run core.RunSummary) *SnapshotResult {
	j.accepted = true
	sr.Summary = JobSummary{CacheHit: true, Run: run}
	return sr
}

// settle books how a job ended — the whole job ledger, once, at the
// walk's exit — from the facts the walk recorded on j and classify's
// reading of err. An accepted job is completed or failed; one turned
// away before that is rejected under its envelope code; a 304, a 400 and
// a cache-only 404 are neither. So accepted == completed + failed, and
// runs == accepted − coalesced − cache-served: a follower rides its
// leader's run, a cache hit never runs.
func (s *Server) settle(j *job, sr *SnapshotResult, err error) {
	status, code := classify(err)
	if j.accepted {
		s.mAccepted.Inc()
		if err == nil {
			s.mCompleted.Inc()
		} else {
			s.mFailed.Inc()
		}
	}
	if j.coalesced {
		s.mCoalesced.Inc()
	}
	switch {
	case status == http.StatusOK:
		if sr.Summary.CacheHit {
			s.mCacheServed.Inc()
		}
		if j.cacheOnly {
			s.mCacheOnlyServed.Inc()
		}
		if j.tier > 0 {
			s.mBrownedOut.With(strconv.Itoa(j.tier)).Inc()
		}
		if !j.coalesced { // the leader's run is the one on record
			s.lastMu.Lock()
			s.lastRuns = append(s.lastRuns, sr.Summary)
			if len(s.lastRuns) > 16 {
				s.lastRuns = s.lastRuns[len(s.lastRuns)-16:]
			}
			s.lastMu.Unlock()
		}
	case status == http.StatusNotModified:
		if j.cacheOnly {
			s.mCacheOnlyServed.Inc()
		}
	case code == wire.CodeCacheMiss:
		s.mCacheOnlyMiss.Inc()
	case !j.accepted && status >= http.StatusTooManyRequests:
		s.mRejected.With(code).Inc()
	}
}

// joinFlight waits for the flight's leader to finish and adapts the
// shared outcome to this follower: same snapshot, own metadata. A
// follower that gives up first (deadline or cancellation) detaches —
// the leader keeps running for the remaining members.
func (s *Server) joinFlight(jctx context.Context, j *job, f *flight) (*SnapshotResult, error) {
	select {
	case <-jctx.Done():
		s.flightMu.Lock()
		f.members--
		s.flightMu.Unlock()
		return nil, fmt.Errorf("%w: %v", ctxKind(jctx.Err()), jctx.Err())
	case <-f.done:
	}
	// Accepted only now: a follower that detached above was never served
	// from the leader's run, and counting it would break
	// runs == accepted − coalesced − cache-served.
	j.accepted, j.coalesced = true, true
	if f.err != nil {
		return nil, fmt.Errorf("serve: coalesced run: %w", f.err)
	}
	return &SnapshotResult{
		Summary:  JobSummary{Coalesced: true, Run: f.out.Summary.Run},
		Snapshot: f.out.Snapshot,
		ETag:     f.out.ETag,
	}, nil
}
