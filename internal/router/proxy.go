package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// Handler returns the router's HTTP surface:
//
//	POST /v1/mesh      proxied to the key's owning backend
//	POST /v1/simulate  proxied to the key's owning backend
//	POST /v1/drain     planned drain of one backend (?backend=<base URL>)
//	GET  /healthz      router liveness
//	GET  /readyz       503 until at least one backend is healthy
//	GET  /v1/stats     JSON routing statistics
//	GET  /metrics      the router's own Prometheus registry
//
// Every router-originated 4xx/5xx carries the same JSON error
// envelope the backends emit; relayed backend responses pass through
// verbatim, including their X-Pi2md-Node header, so the client always
// learns which node actually served it.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/mesh", r.handleProxy)
	mux.HandleFunc("POST /v1/simulate", r.handleProxy)
	mux.HandleFunc("POST /v1/drain", r.handleDrain)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.reg.WritePrometheus(w)
	})
	return mux
}

// routePlan is a resolved proxy decision: the route identity, the bytes
// to send (nil means stream req.Body through once, no replay), and the
// response format. format is non-empty only for /v1/mesh — it marks the
// request as one whose result lives in the backends' snapshot caches,
// which is what arms the ETag table and the replica cache-only ladder.
type routePlan struct {
	routeKey string // routeKey(imageKey, variant)
	imageKey string
	variant  string
	format   string // "vtk"/"off" for /v1/mesh, "" for /v1/simulate
	raw      []byte // buffered body; nil on the streaming path
	stream   io.Reader
	// exact: the router hashed the buffered image and resolved the spec
	// itself, so a cache read of (imageKey, variant, format) names the
	// very entity the POST would be answered with.
	exact bool
}

// routeKey joins the two halves of a job's identity into the key the
// ring, the pin table and the ETag table all index by.
func routeKey(imageKey, variant string) string { return imageKey + "|" + variant }

// handleProxy is the whole proxy path: derive the route key, answer a
// conditional request from the local ETag table when it can, join or
// start the key's cross-node flight, walk the candidate ladder
// (pinned backend, then ring replicas) — cache-only first when the
// key's last-known server is gone, a cache read ahead of the upload when
// the key is known exactly — stream the first response back, or
// answer 503 with the shared Retry-After policy when every candidate
// is unreachable.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	started := time.Now()
	r.mJobs.Inc()
	plan, ok := r.planRoute(w, req)
	if !ok {
		r.mFailed.Inc()
		return
	}

	// Router-side 304 short-circuit: when the client's If-None-Match
	// names the entity the table last saw for this key, answer locally —
	// no backend round trip, no body. The table is populated only from
	// real backend responses and drain announcements; the raw etag is
	// content-derived (CRC64 of the cached blob, keyed by the image's
	// SHA-256), so a match here is exactly the match the backend would
	// have computed. A stale entry fails the comparison and the request
	// forwards normally — the backend stays authoritative. This is the
	// request's one table read; trigger 1 and the keyed read act on it too.
	var ent etagEntry
	known := false
	if plan.format != "" {
		ent, known = r.etags.lookup(plan.routeKey)
	}
	if inm := req.Header.Get("If-None-Match"); known && inm != "" {
		entity := wire.EntityTag(ent.etag, plan.format)
		if wire.ETagMatch(inm, entity) {
			w.Header().Set("ETag", entity)
			w.WriteHeader(http.StatusNotModified)
			r.mETag304.Inc()
			r.mCompleted.Inc()
			r.mProxySeconds.Observe(time.Since(started).Seconds())
			return
		}
	}

	pinned, joined := r.joinFlight(plan.routeKey)
	defer r.leaveFlight(plan.routeKey)
	if joined {
		r.mFlightJoins.Inc()
	}

	// Every backend attempt beyond this request's first — fallback
	// forwards, extra cache probes — is accounted against the shared
	// retry budget, so a dying fleet sees bounded amplification
	// instead of Replicas× its offered load. A keyed attempt's cache read
	// and the forward behind it are one attempt (send).
	att := &attempts{r: r}

	// Candidate ladder: the flight's pinned backend first — even if
	// membership changed under it, the in-flight run and its coalescing
	// flight live there — then the ring replicas in ownership order.
	cands := make([]string, 0, r.cfg.Replicas+1)
	if pinned != "" {
		cands = append(cands, pinned)
	}
	for _, c := range r.candidates(plan.routeKey) {
		if c != pinned {
			cands = append(cands, c)
		}
	}

	// Replica cache reads, trigger 1 — ejection of the key's server:
	// when the backend that last served this key is no longer healthy,
	// a survivor may still hold the result on disk. Probe the ladder
	// cache-only (a body-less GET) before paying a full re-mesh on the
	// new owner.
	probed := false
	if known && ent.backend != "" && !r.isHealthy(ent.backend) {
		probed = true
		if r.tryCacheLadder(w, req, plan, cands, started, att) {
			return
		}
		// No survivor holds the blob (or the budget stopped the
		// walk): drop the entry — guarded on it still naming the
		// unhealthy backend — so the next request for this key goes
		// straight to the new owner instead of re-walking this
		// ladder forever.
		r.etags.dropIf(plan.routeKey, ent.backend)
	}
	// A key the table knows, named exactly: the first attempt reads the
	// first candidate's cache before it ships the upload (send).
	keyed := known && plan.exact && !probed

	for i, cand := range cands {
		var body io.Reader
		switch {
		case plan.raw != nil:
			body = bytes.NewReader(plan.raw)
		case i == 0:
			body = plan.stream
		default:
			// Streaming path: the body is gone after the first attempt;
			// no replay is possible.
			r.answer503(w, "backend %s unreachable and request body is not replayable (streamed via %s)",
				cands[0], ImageKeyHeader)
			return
		}
		if !att.allow() {
			r.answer503(w, "retry budget exhausted routing key %s (stopped before attempt %d)",
				plan.routeKey, i+1)
			return
		}
		r.setPin(plan.routeKey, cand)
		resp, err := r.send(req, cand, body, plan, keyed && i == 0)
		if err != nil {
			if req.Context().Err() != nil {
				// The client went away or its deadline expired mid-attempt;
				// nobody is listening, so stop walking the ladder. This is
				// the backend tier's 499, not a capacity signal — no
				// Retry-After, and the backend is not blamed.
				r.answerCanceled(w, cand, err)
				return
			}
			r.mProxied.With(cand, outcomeTransportErr).Inc()
			r.noteTransportFailure(cand)
			// Replica cache reads, trigger 2 — transport failure: before
			// re-meshing on the remaining candidates, ask each (body-less,
			// cache-only) whether it already holds the result.
			if plan.format != "" && !probed {
				probed = true
				if r.tryCacheLadder(w, req, plan, cands[i+1:], started, att) {
					return
				}
			}
			continue
		}
		r.finish(w, req, resp, cand, plan, started)
		return
	}
	r.answer503(w, "no reachable backend for key %s (tried %d)", plan.routeKey, len(cands))
}

// finish relays a backend's response and settles the job: completed
// when the whole body reached the client, failed otherwise, timed either
// way.
func (r *Router) finish(w http.ResponseWriter, req *http.Request, resp *http.Response, backend string, plan routePlan, started time.Time) {
	if r.relay(w, req, resp, backend, plan) {
		r.mCompleted.Inc()
	} else {
		r.mFailed.Inc()
	}
	r.mProxySeconds.Observe(time.Since(started).Seconds())
}

// attempts is one request's retry-budget ledger: the first backend
// round trip is always free (it is the request, not a retry), every
// additional one must withdraw a token. A declined allow stops the
// ladder and is counted as budget exhaustion.
type attempts struct {
	r    *Router
	used int
}

func (a *attempts) allow() bool {
	if a.used > 0 {
		if !a.r.budget.withdraw() {
			a.r.mRetryExhausted.Inc()
			return false
		}
		a.r.mRetries.Inc()
	}
	a.used++
	return true
}

// tryCacheLadder walks candidates with cache-only probes — GET
// /v1/cache/{key}/{variant}, no request body — and relays the first
// hit: a backend that still holds the blob serves it (or validates the
// client's ETag to a 304) with zero re-meshing. A 404 cache_miss moves
// the ladder along — and drops the ETag entry when the missing backend
// is the very one the table attributed the key to, so a gone blob
// stops re-arming this ladder on every request. A transport failure
// feeds the health ledger like any other. Returns true when a response
// was relayed and the request is done.
func (r *Router) tryCacheLadder(w http.ResponseWriter, req *http.Request, plan routePlan, cands []string, started time.Time, att *attempts) bool {
	for _, cand := range cands {
		if !att.allow() {
			return false
		}
		resp, err := r.probeCache(req, cand, plan)
		if err != nil {
			if req.Context().Err() != nil {
				r.answerCanceled(w, cand, err)
				return true
			}
			r.noteTransportFailure(cand)
			continue
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
			// A miss moves the ladder along. Any other rejection (bad
			// key, draining-side surprise) is not a cache answer either:
			// fall back to the full path, where the backend's own parser
			// owns the verdict.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				r.mReplicaMisses.Inc()
				r.etags.dropIf(plan.routeKey, cand)
			}
			continue
		}
		r.mReplicaHits.Inc()
		r.setPin(plan.routeKey, cand)
		r.finish(w, req, resp, cand, plan, started)
		return true
	}
	return false
}

// probeCache asks one backend for the plan's key from its result cache
// alone: a body-less GET against the cache probe endpoint under the
// client's context, with the client's validators forwarded so a holder
// can answer 304 instead of shipping the mesh.
func (r *Router) probeCache(req *http.Request, backend string, plan routePlan) (*http.Response, error) {
	if faultinject.Fire(faultinject.ProxyDialFail) {
		return nil, errInjectedDial
	}
	u := backend + "/v1/cache/" + plan.imageKey
	if plan.variant != "" {
		u += "/" + url.PathEscape(plan.variant)
	}
	u += "?format=" + url.QueryEscape(plan.format)
	preq, err := http.NewRequestWithContext(req.Context(), http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if inm := req.Header.Get("If-None-Match"); inm != "" {
		preq.Header.Set("If-None-Match", inm)
	}
	return r.cfg.Transport.RoundTrip(preq)
}

// planRoute derives the (image key, variant) route key and the bytes
// to forward. On a local rejection (oversize, empty, unreadable body,
// malformed key header) it writes the error envelope and returns
// ok=false; the caller accounts the failure.
func (r *Router) planRoute(w http.ResponseWriter, req *http.Request) (routePlan, bool) {
	var plan routePlan
	var specJSON []byte
	if hk := req.Header.Get(ImageKeyHeader); hk != "" {
		// Streaming path: the client vouched for the key, the router
		// never touches the body. The key must look exactly like what it
		// claims to be — a full SHA-256 in lowercase hex — or arbitrary
		// client bytes would become route keys, poisoning the pin table,
		// the ETag table, and metrics cardinality. The only spec a
		// body-less router can see is the query string; a spec part in
		// the body that disagrees only costs routing locality, never
		// correctness — the backend re-derives everything.
		if !wire.ValidImageKey(hk) {
			wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
				"%s must be 64 lowercase hex characters (the full SHA-256 of the image), got %d bytes",
				ImageKeyHeader, len(hk))
			return plan, false
		}
		plan.imageKey, plan.stream = hk, req.Body
	} else {
		raw, err := wire.ReadSized(http.MaxBytesReader(w, req.Body, r.cfg.MaxRequestBytes),
			min(req.ContentLength, r.cfg.MaxRequestBytes))
		var image []byte
		if err == nil {
			specJSON, image, err = wire.SplitBuffered(req.Header.Get("Content-Type"), raw)
		}
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			wire.WriteError(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
				"request body exceeds the %d byte cap", r.cfg.MaxRequestBytes)
			return plan, false
		case err != nil:
			wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "reading body: %v", err)
			return plan, false
		case len(image) == 0:
			wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
				"empty body: expected an NRRD label image")
			return plan, false
		}
		plan.imageKey, plan.raw = r.uploads.Of(image), raw
	}

	// The variant mirrors the backend's coalescing/cache identity, read
	// through the backend's own resolver. A malformed spec routes under
	// the empty variant and travels on to the backend, whose parser owns
	// the precise 400 — it is never exact, so no cache read can answer
	// in the backend's place. Only /v1/mesh has a format: a simulation's
	// answer is not in any snapshot cache, so it must never arm the ETag
	// table or the cache ladder.
	if req.URL.Path == "/v1/mesh" {
		plan.format = "vtk"
		if sp, err := wire.ResolveMeshSpec(specJSON, req.URL.Query()); err == nil {
			plan.variant, plan.format, plan.exact = sp.Variant(), sp.Format, plan.raw != nil
		}
	} else if specJSON != nil {
		if sp, err := wire.ParseSimSpec(specJSON); err == nil {
			plan.variant = sp.Mesh.Variant()
		}
	}
	plan.routeKey = routeKey(plan.imageKey, plan.variant)
	return plan, true
}

// send makes one proxy attempt. A keyed attempt first asks backend's
// cache body-less (probeCache) and returns a 200 or 304 as the answer;
// anything else is drained — a 404 drops the table entry naming backend,
// as on the ladder — and the body follows. Read and forward are one
// attempt, so a gone blob costs a small round trip and no retry token. A
// transport failure of the read is the attempt's, as a forward's would be.
func (r *Router) send(req *http.Request, backend string, body io.Reader, plan routePlan, keyed bool) (*http.Response, error) {
	if keyed {
		resp, err := r.probeCache(req, backend, plan)
		if err != nil || resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified {
			return resp, err
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			r.etags.dropIf(plan.routeKey, backend)
		}
	}
	return r.forward(req, backend, body, plan)
}

// forward sends the request, body and all, to backend. The original
// request's context — and with it the client's deadline and disconnect —
// governs the round trip, so a backend never works for a caller that
// already gave up, and the backend's own deadline-based admission sees
// the true budget.
func (r *Router) forward(orig *http.Request, backend string, body io.Reader, plan routePlan) (*http.Response, error) {
	if faultinject.Fire(faultinject.ProxyDialFail) {
		return nil, errInjectedDial
	}
	req, err := http.NewRequestWithContext(orig.Context(), orig.Method,
		backend+orig.URL.RequestURI(), body)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, orig.Header)
	if plan.raw != nil {
		req.ContentLength = int64(len(plan.raw))
	} else {
		req.ContentLength = orig.ContentLength
	}
	return r.cfg.Transport.RoundTrip(req)
}

var errInjectedDial = errors.New("injected dial failure")

// relay streams a backend response to the client verbatim: status,
// headers (including X-Pi2md-Node, ETag, Retry-After), body. The copy
// error is part of the outcome: a backend dying mid-body is a
// transport failure (fed to the health ledger) even though the status
// line already went out, and a client disconnecting mid-body is
// client_gone — neither may count as a completed relay, or truncated
// responses would read as successes in every ledger. Returns true only
// when the full body was relayed; on success the response's entity tag
// is learned into the ETag table under the plan's route key.
func (r *Router) relay(w http.ResponseWriter, req *http.Request, resp *http.Response, backend string, plan routePlan) bool {
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	if _, cerr := io.Copy(w, resp.Body); cerr != nil {
		if req.Context().Err() != nil {
			r.mProxied.With(backend, outcomeClientGone).Inc()
		} else {
			r.mProxied.With(backend, outcomeTransportErr).Inc()
			r.noteTransportFailure(backend)
		}
		return false
	}
	switch {
	case resp.StatusCode >= 500:
		r.mProxied.With(backend, outcomeUpstream5xx).Inc()
	case resp.StatusCode >= 400:
		r.mProxied.With(backend, outcomeUpstream4xx).Inc()
	default:
		r.mProxied.With(backend, outcomeOK).Inc()
		r.budget.deposit() // successes are what earn retry allowance back
		if plan.format != "" {
			if raw := rawETagFromHeader(resp.Header.Get("ETag")); raw != "" {
				r.etags.learn(plan.routeKey, raw, backend)
			}
		}
	}
	return true
}

// noteTransportFailure feeds a proxy-side connection failure into the
// same consecutive-failure ledger the prober uses, so a node that
// dies under traffic is ejected by the requests that discover it.
func (r *Router) noteTransportFailure(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.backends[backend]; b != nil {
		b.lastErr = "proxy transport failure"
		r.failLocked(b)
	}
}

// unavailable writes the router-originated 503 envelope with the shared
// Retry-After policy: the estimate is the time the health loop needs to
// eject-and-detect (FailThreshold probe periods), jittered and clamped
// to [1,30]s exactly as the backends do.
func (r *Router) unavailable(w http.ResponseWriter, format string, args ...any) {
	est := float64(r.cfg.FailThreshold) * r.cfg.ProbeInterval.Seconds()
	w.Header().Set("Retry-After",
		strconv.Itoa(wire.ClampRetryAfter(est, r.cfg.Jitter)))
	wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, format, args...)
}

// answer503 fails a proxy job as unavailable.
func (r *Router) answer503(w http.ResponseWriter, format string, args ...any) {
	r.unavailable(w, format, args...)
	r.mFailed.Inc()
}

// answerCanceled classifies a mid-proxy client cancellation exactly as
// the backend tier does: 499 canceled, no Retry-After — the client
// went away, telling it to retry is meaningless and a 503 would read
// as backend trouble in every dashboard. Counted failed (the job
// produced no relayed response) and not retryable; the backend is not
// blamed in the health ledger for a client that hung up.
func (r *Router) answerCanceled(w http.ResponseWriter, backend string, err error) {
	r.mProxied.With(backend, outcomeClientGone).Inc()
	wire.WriteError(w, wire.StatusClientClosedRequest, wire.CodeCanceled,
		"client canceled during proxy to %s: %v", backend, err)
	r.mFailed.Inc()
}

// drainResult is the POST /v1/drain response document.
type drainResult struct {
	Backend       string `json:"backend"`
	NodeID        string `json:"node_id,omitempty"`
	KeysPrewarmed int    `json:"keys_prewarmed"` // announced keys valid enough to learn
	Ejected       bool   `json:"ejected"`
}

// handleDrain is POST /v1/drain?backend=<base URL>: the planned-drain
// handoff. The router tells the backend to drain; the backend answers
// with its MRU cached keys; the router learns each (routeKey → etag,
// backend) into its ETag table — so conditional requests keep 304ing
// locally and the replica cache-only ladder fires for exactly the keys
// the drained node was warm for — and then ejects the node from the
// ring immediately instead of waiting for probes to notice the drain.
func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	backend := normalizeBackend(req.URL.Query().Get("backend"))
	r.mu.Lock()
	_, known := r.backends[backend]
	r.mu.Unlock()
	if !known {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			"unknown backend %q: want one of the configured base URLs", backend)
		return
	}

	ctx, cancel := context.WithTimeout(req.Context(), 10*time.Second)
	defer cancel()
	dreq, err := http.NewRequestWithContext(ctx, http.MethodPost, backend+"/v1/drain", nil)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "building drain request: %v", err)
		return
	}
	resp, err := r.cfg.Transport.RoundTrip(dreq)
	if err != nil {
		// Unreachable already: nothing to hand off, but the operator asked
		// for this node to be out of rotation — eject it anyway.
		r.noteTransportFailure(backend)
		r.ejectBackend(backend)
		r.mDrains.Inc()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(drainResult{Backend: backend, Ejected: true})
		return
	}
	defer resp.Body.Close()
	var ann struct {
		NodeID string `json:"node_id"`
		Keys   []struct {
			ImageKey string `json:"image_key"`
			Variant  string `json:"variant"`
			ETag     string `json:"etag"`
		} `json:"keys"`
	}
	if resp.StatusCode != http.StatusOK {
		wire.WriteError(w, http.StatusBadGateway, wire.CodeUnavailable,
			"backend %s answered drain with status %d", backend, resp.StatusCode)
		return
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&ann); err != nil {
		wire.WriteError(w, http.StatusBadGateway, wire.CodeUnavailable,
			"backend %s drain response unreadable: %v", backend, err)
		return
	}
	// Announced keys are backend input, checked like relayed ETags, so
	// junk cannot push real entries out of the bounded table.
	learned := 0
	for _, k := range ann.Keys {
		if wire.ValidImageKey(k.ImageKey) && validRawETag(k.ETag) {
			r.etags.learn(routeKey(k.ImageKey, k.Variant), k.ETag, backend)
			learned++
		}
	}
	r.ejectBackend(backend)
	r.mDrains.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(drainResult{
		Backend: backend, NodeID: ann.NodeID,
		KeysPrewarmed: learned, Ejected: true,
	})
}

// handleReadyz: the router is ready when it can route — at least one
// backend in the ring.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	n := r.ring.Size()
	r.mu.Unlock()
	if n == 0 {
		r.unavailable(w, "no healthy backends")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ready\n")
}

// Stats is the /v1/stats document.
type Stats struct {
	UptimeSeconds      float64        `json:"uptime_seconds"`
	Backends           []BackendStats `json:"backends"`
	RingMembers        []string       `json:"ring_members"`
	Rebalances         int64          `json:"ring_rebalances"`
	ProxiedJobs        int64          `json:"proxied_jobs"`
	CompletedJobs      int64          `json:"completed_jobs"`
	FailedJobs         int64          `json:"failed_jobs"`
	FlightJoins        int64          `json:"flight_joins"`
	ReplicaCacheHits   int64          `json:"replica_cache_hits"`
	ReplicaCacheMisses int64          `json:"replica_cache_misses"`
	ETag304s           int64          `json:"etag_304s"`
	ETagEntries        int            `json:"etag_entries"`
	PlannedDrains      int64          `json:"planned_drains"`
	Retries            int64          `json:"retries"`
	RetryExhausted     int64          `json:"retry_budget_exhausted"`
	RetryBudgetTokens  float64        `json:"retry_budget_tokens"`
	InflightKeys       []string       `json:"inflight_keys,omitempty"`

	// UploadCache is what the upload memo retains.
	UploadCache wire.MemCacheStats `json:"upload_cache"`
}

// BackendStats is one backend's health ledger snapshot.
type BackendStats struct {
	Name             string `json:"name"`
	Healthy          bool   `json:"healthy"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	Probes           int64  `json:"probes"`
	LastError        string `json:"last_error,omitempty"`
}

// Stats snapshots the router's routing state.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	st := Stats{
		UptimeSeconds:      time.Since(r.start).Seconds(),
		RingMembers:        r.ring.Members(),
		Rebalances:         r.mRebalances.Value(),
		ProxiedJobs:        r.mJobs.Value(),
		CompletedJobs:      r.mCompleted.Value(),
		FailedJobs:         r.mFailed.Value(),
		FlightJoins:        r.mFlightJoins.Value(),
		ReplicaCacheHits:   r.mReplicaHits.Value(),
		ReplicaCacheMisses: r.mReplicaMisses.Value(),
		ETag304s:           r.mETag304.Value(),
		PlannedDrains:      r.mDrains.Value(),
		Retries:            r.mRetries.Value(),
		RetryExhausted:     r.mRetryExhausted.Value(),
		RetryBudgetTokens:  r.budget.balance(),
	}
	for _, name := range r.order {
		b := r.backends[name]
		st.Backends = append(st.Backends, BackendStats{
			Name:             b.name,
			Healthy:          b.healthy,
			ConsecutiveFails: b.fails,
			Probes:           b.probes,
			LastError:        b.lastErr,
		})
	}
	r.mu.Unlock()
	st.ETagEntries = r.etags.len()
	st.UploadCache = r.uploads.Stats()
	st.InflightKeys = r.InflightKeys()
	return st
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Stats())
}

// hopByHop are the connection-scoped headers a proxy must not relay.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// copyHeaders relays headers minus the connection-scoped ones: the
// static hop-by-hop set, plus — RFC 7230 §6.1 — any header named in the
// Connection header's own comma-separated value, which a peer uses to
// mark arbitrary headers as single-hop.
func copyHeaders(dst, src http.Header) {
	var named map[string]bool
	for _, v := range src.Values("Connection") {
		for _, tok := range strings.Split(v, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				if named == nil {
					named = make(map[string]bool)
				}
				named[http.CanonicalHeaderKey(tok)] = true
			}
		}
	}
	for k, vs := range src {
		ck := http.CanonicalHeaderKey(k)
		if hopByHop[ck] || named[ck] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}
