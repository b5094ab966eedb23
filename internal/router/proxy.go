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

// routePlan is a resolved proxy decision: the route identity, the
// buffered body every attempt replays, and the response format. format
// is non-empty only for a /v1/mesh whose spec resolved: its answer then
// lives in the backends' snapshot caches as exactly (imageKey, variant,
// format), which is what arms the ETag table and the ladder's cache
// reads.
type routePlan struct {
	routeKey string // routeKey(imageKey, variant)
	imageKey string
	variant  string
	format   string // "vtk"/"off" for a resolved /v1/mesh, else ""
	raw      []byte // the whole request body
}

// routeKey joins the two halves of a job's identity into the key the
// ring and the ETag table both index by.
func routeKey(imageKey, variant string) string { return imageKey + "|" + variant }

// handleProxy is the whole proxy path: buffer the body and derive the
// route key, answer a conditional request from the local ETag table
// when it can, walk the ring replicas in ownership order — a cache read
// ahead of the upload when the table knows the key or the attempt is a
// failover — relay the first response, or answer 503 with the shared
// Retry-After policy when every candidate is unreachable.
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
	// request's one table read; the ladder's cache reads act on it too.
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

	// The ladder's length is the only bound on failover work: each
	// candidate gets one attempt, and only a transport failure moves the
	// ladder along, so every attempt after the first is a retry. An
	// attempt reads its candidate's cache before it uploads when the
	// table knows the key, and on every failover attempt: a key whose
	// server is gone is then read from a replica's cache, not re-meshed.
	// The read is a replica read when it is a failover attempt's, or when
	// its candidate is not the backend the table recorded.
	cands := r.candidates(plan.routeKey)
	for i, cand := range cands {
		if i > 0 {
			r.mRetries.Inc()
		}
		read := plan.format != "" && (known || i > 0)
		replica := i > 0 || cand != ent.backend
		resp, err := r.send(req, cand, plan, read, replica)
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
			continue
		}
		// Settle the job: completed when the whole body reached the
		// client, failed otherwise, timed either way.
		if r.relay(w, req, resp, cand, plan) {
			r.mCompleted.Inc()
		} else {
			r.mFailed.Inc()
		}
		r.mProxySeconds.Observe(time.Since(started).Seconds())
		return
	}
	r.answer503(w, "no reachable backend for key %s (tried %d)", plan.routeKey, len(cands))
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

// planRoute buffers the body and derives the (image key, variant)
// route key from it. On a local rejection (oversize, empty, unreadable
// body) it writes the error envelope and returns ok=false; the caller
// accounts the failure.
func (r *Router) planRoute(w http.ResponseWriter, req *http.Request) (routePlan, bool) {
	var plan routePlan
	raw, err := wire.ReadSized(http.MaxBytesReader(w, req.Body, r.cfg.MaxRequestBytes),
		min(req.ContentLength, r.cfg.MaxRequestBytes))
	var specJSON, image []byte
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

	// The variant mirrors the backend's coalescing/cache identity, read
	// through the backend's own resolver. A malformed spec routes under
	// the empty variant with no format and travels on to the backend,
	// whose parser owns the precise 400: no cache read or table entry may
	// answer in the backend's place. A simulation has no format either:
	// its answer is not in any snapshot cache.
	if req.URL.Path == "/v1/mesh" {
		if sp, err := wire.ResolveMeshSpec(specJSON, req.URL.Query()); err == nil {
			plan.variant, plan.format = sp.Variant(), sp.Format
		}
	} else if specJSON != nil {
		if sp, err := wire.ParseSimSpec(specJSON); err == nil {
			plan.variant = sp.Mesh.Variant()
		}
	}
	plan.routeKey = routeKey(plan.imageKey, plan.variant)
	return plan, true
}

// send makes one proxy attempt. An attempt that reads first asks
// backend's cache body-less (probeCache) and returns a 200 or 304 as the
// answer; anything else is drained — a 404 drops the table entry naming
// backend, so a gone blob stops answering local 304s — and the body
// follows. Read and forward are one attempt, so a gone blob costs a small
// round trip and no retry. A transport failure of the read is the
// attempt's, as a forward's would be. A replica read's hit or 404 is
// counted in the replica cache counters.
func (r *Router) send(req *http.Request, backend string, plan routePlan, read, replica bool) (*http.Response, error) {
	if read {
		resp, err := r.probeCache(req, backend, plan)
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusNotModified:
			if replica {
				r.mReplicaHits.Inc()
			}
			return resp, nil
		case http.StatusNotFound:
			if replica {
				r.mReplicaMisses.Inc()
			}
			r.etags.dropIf(plan.routeKey, backend)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}
	return r.forward(req, backend, plan)
}

// forward sends the request, its buffered body replayed, to backend.
// The original request's context — and with it the client's deadline
// and disconnect — governs the round trip, so a backend never works for
// a caller that already gave up, and the backend's own deadline-based
// admission sees the true budget.
func (r *Router) forward(orig *http.Request, backend string, plan routePlan) (*http.Response, error) {
	if faultinject.Fire(faultinject.ProxyDialFail) {
		return nil, errInjectedDial
	}
	req, err := http.NewRequestWithContext(orig.Context(), orig.Method,
		backend+orig.URL.RequestURI(), bytes.NewReader(plan.raw))
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, orig.Header)
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
// locally and the keys the drained node was warm for are read from the
// survivors' caches before any upload — and then ejects the node from the
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
	ReplicaCacheHits   int64          `json:"replica_cache_hits"`
	ReplicaCacheMisses int64          `json:"replica_cache_misses"`
	ETag304s           int64          `json:"etag_304s"`
	ETagEntries        int            `json:"etag_entries"`
	PlannedDrains      int64          `json:"planned_drains"`
	Retries            int64          `json:"retries"`

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
		ReplicaCacheHits:   r.mReplicaHits.Value(),
		ReplicaCacheMisses: r.mReplicaMisses.Value(),
		ETag304s:           r.mETag304.Value(),
		PlannedDrains:      r.mDrains.Value(),
		Retries:            r.mRetries.Value(),
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
