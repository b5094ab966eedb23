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
	"repro/internal/serve"
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
	routeKey string // imageKey + "|" + variant
	imageKey string
	variant  string
	format   string // "vtk"/"off" for /v1/mesh, "" for /v1/simulate
	raw      []byte // buffered body; nil on the streaming path
	stream   io.Reader
}

// handleProxy is the whole proxy path: derive the route key, answer a
// conditional request from the local ETag table when it can, join or
// start the key's cross-node flight, walk the candidate ladder
// (pinned backend, then ring replicas) — cache-only first when the
// key's last-known server is gone — stream the first response back, or
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
	// forwards normally — the backend stays authoritative.
	if plan.format != "" {
		if inm := req.Header.Get("If-None-Match"); inm != "" {
			if ent, ok := r.etags.lookup(plan.routeKey); ok {
				entity := serve.EntityTag(ent.etag, plan.format)
				if serve.ETagMatch(inm, entity) {
					w.Header().Set("ETag", entity)
					w.WriteHeader(http.StatusNotModified)
					r.mETag304.Inc()
					r.mCompleted.Inc()
					r.mProxySeconds.Observe(time.Since(started).Seconds())
					return
				}
			}
		}
	}

	pinned, joined := r.joinFlight(plan.routeKey)
	defer r.leaveFlight(plan.routeKey)
	if joined {
		r.mFlightJoins.Inc()
	}

	// Every backend round trip beyond this request's first — fallback
	// forwards, extra cache probes, hedges — is accounted against the
	// shared retry budget, so a dying fleet sees bounded amplification
	// instead of Replicas× its offered load.
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
	if plan.format != "" {
		if ent, ok := r.etags.lookup(plan.routeKey); ok && ent.backend != "" && !r.isHealthy(ent.backend) {
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
	}

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
		resp, err := r.forward(req, cand, body, plan)
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

// attempts is one request's retry-budget ledger: the first backend
// round trip is always free (it is the request, not a retry), every
// additional one must withdraw a token. Hedges go through allowHedge —
// a declined hedge is merely not fired (starved), while a declined
// allow stops the ladder and is counted as budget exhaustion.
type attempts struct {
	r    *Router
	used int
}

func (a *attempts) allow() bool {
	if a.used == 0 {
		a.used++
		return true
	}
	if a.r.budget != nil && !a.r.budget.withdraw() {
		a.r.mRetryExhausted.Inc()
		return false
	}
	a.used++
	a.r.mRetries.Inc()
	return true
}

// allowHedge pays for a speculative extra probe. Unlike allow it is
// never free — a hedge is by definition a second round trip for work
// already in flight.
func (a *attempts) allowHedge() bool {
	if a.r.budget != nil && !a.r.budget.withdraw() {
		return false
	}
	a.used++
	a.r.mRetries.Inc()
	return true
}

// tryCacheLadder walks candidates with cache-only probes — GET
// /v1/cache/{key}/{variant}, no request body — and relays the first
// hit: a backend that still holds the blob serves it (or validates the
// client's ETag to a 304) with zero re-meshing. Probes are hedged: if
// a rung is still unanswered after the observed probe-latency upper
// quantile, the next rung is fired in parallel and the first winner is
// relayed (a hedge-won 404 skips both rungs). A 404 cache_miss moves
// the ladder along — and drops the ETag entry when the missing backend
// is the very one the table attributed the key to, so a gone blob
// stops re-arming this ladder on every request. A transport failure
// feeds the health ledger like any other. Returns true when a response
// was relayed and the request is done.
func (r *Router) tryCacheLadder(w http.ResponseWriter, req *http.Request, plan routePlan, cands []string, started time.Time, att *attempts) bool {
	for i := 0; i < len(cands); i++ {
		if !att.allow() {
			return false
		}
		hedge := ""
		if i+1 < len(cands) {
			hedge = cands[i+1]
		}
		resp, winner, hedgeFired, err := r.probeCacheHedged(req, plan, cands[i], hedge, att)
		if hedgeFired {
			// Whatever the hedge's rung would have said is already
			// answered (or abandoned as the canceled loser): skip it.
			i++
		}
		if err != nil {
			if req.Context().Err() != nil {
				r.answerCanceled(w, winner, err)
				return true
			}
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			r.mReplicaMisses.Inc()
			r.etags.dropIf(plan.routeKey, winner)
			continue
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
			// A probe rejection other than a miss (bad key, draining-side
			// surprise): not a cache answer — fall back to the full path,
			// where the backend's own parser owns the verdict.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			continue
		}
		r.mReplicaHits.Inc()
		r.setPin(plan.routeKey, winner)
		if r.relay(w, req, resp, winner, plan) {
			r.mCompleted.Inc()
		} else {
			r.mFailed.Inc()
		}
		r.mProxySeconds.Observe(time.Since(started).Seconds())
		return true
	}
	return false
}

// probeResult is one cache probe's outcome in a hedged race. cancel
// releases the probe's context; for the winner it is deferred to body
// close, so the relay can stream the response before the context dies.
type probeResult struct {
	resp    *http.Response
	err     error
	backend string
	cancel  context.CancelFunc
}

// cancelOnClose ties a hedged winner's context to its body: relay's
// Close releases the context only after the last byte was streamed.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// hedgeDelay is how long a cache probe may stay unanswered before its
// hedge fires: the configured upper quantile of observed probe
// latency, floored by HedgeMinDelay until the histogram has enough
// samples to mean anything.
func (r *Router) hedgeDelay() time.Duration {
	if r.mProbeSeconds.Count() >= 16 {
		if q := r.mProbeSeconds.Quantile(r.cfg.HedgeQuantile); q > 0 {
			d := time.Duration(q * float64(time.Second))
			if d > r.cfg.HedgeMinDelay {
				return d
			}
		}
	}
	return r.cfg.HedgeMinDelay
}

// probeCacheHedged races a cache-only probe of primary against a
// hedge of the same probe at hedge, fired only if primary is still
// unanswered after hedgeDelay. The first backend to produce a response
// wins; the loser's probe is canceled and its body reaped off the
// request path. An early transport error from one side feeds the
// health ledger and the race waits for the other; only when every
// fired probe has failed does the call return an error. hedgeFired
// reports whether the hedge actually launched (its rung is consumed).
// Hedging is skipped — never failing the request — when no hedge
// candidate exists, hedging is disabled, the deadline is too close for
// a hedge to help, or the retry budget declines the extra probe.
func (r *Router) probeCacheHedged(req *http.Request, plan routePlan, primary, hedge string, att *attempts) (resp *http.Response, backend string, hedgeFired bool, err error) {
	results := make(chan probeResult, 2)
	launch := func(b string) {
		ctx, cancel := context.WithCancel(req.Context())
		go func() {
			resp, err := r.probeCacheCtx(ctx, b, req, plan)
			results <- probeResult{resp: resp, err: err, backend: b, cancel: cancel}
		}()
	}
	launch(primary)

	var timerC <-chan time.Time
	if hedge != "" && r.cfg.HedgeQuantile > 0 {
		delay := r.hedgeDelay()
		tooLate := false
		if dl, ok := req.Context().Deadline(); ok && time.Until(dl) < 2*delay {
			// By the time the hedge fires, half the remaining budget is
			// gone — the race cannot pay for itself.
			tooLate = true
		}
		if !tooLate {
			t := time.NewTimer(delay)
			defer t.Stop()
			timerC = t.C
		}
	}

	outstanding := 1
	backend = primary
	for {
		select {
		case <-timerC:
			timerC = nil
			if !att.allowHedge() {
				r.mHedged.With("starved").Inc()
				continue
			}
			launch(hedge)
			outstanding++
			hedgeFired = true
		case res := <-results:
			outstanding--
			backend = res.backend
			if res.err != nil {
				res.cancel()
				if req.Context().Err() == nil {
					r.noteTransportFailure(res.backend)
				}
				if outstanding > 0 {
					// The other side of the race may still answer.
					continue
				}
				return nil, res.backend, hedgeFired, res.err
			}
			if outstanding > 0 {
				// First winner takes the request; cancel the loser and
				// reap its eventual result off the request path.
				go func() {
					loser := <-results
					loser.cancel()
					if loser.resp != nil {
						io.Copy(io.Discard, io.LimitReader(loser.resp.Body, 4<<10))
						loser.resp.Body.Close()
					}
				}()
			}
			if hedgeFired {
				if res.backend == hedge {
					r.mHedged.With("won").Inc()
				} else {
					r.mHedged.With("lost").Inc()
				}
			}
			res.resp.Body = &cancelOnClose{ReadCloser: res.resp.Body, cancel: res.cancel}
			return res.resp, res.backend, hedgeFired, nil
		}
	}
}

// probeCacheCtx asks one backend for the plan's key from its result
// cache alone: a body-less GET against the cache probe endpoint, with
// the client's validators forwarded so a holder can answer 304 instead
// of shipping the mesh. ctx governs the round trip so a hedged loser
// can be canceled independently of the client request.
func (r *Router) probeCacheCtx(ctx context.Context, backend string, req *http.Request, plan routePlan) (*http.Response, error) {
	if faultinject.Fire(faultinject.ProxyDialFail) {
		return nil, errInjectedDial
	}
	// HedgeLoser stalls this probe (tests cap it to the primary with
	// MaxFires) so its hedge races ahead and wins.
	faultinject.Sleep(faultinject.HedgeLoser)
	u := backend + "/v1/cache/" + plan.imageKey
	if plan.variant != "" {
		u += "/" + url.PathEscape(plan.variant)
	}
	u += "?format=" + url.QueryEscape(plan.format)
	preq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if inm := req.Header.Get("If-None-Match"); inm != "" {
		preq.Header.Set("If-None-Match", inm)
	}
	start := time.Now()
	resp, err := r.cfg.Transport.RoundTrip(preq)
	if err == nil {
		r.mProbeSeconds.Observe(time.Since(start).Seconds())
	}
	return resp, err
}

// planRoute derives the (image key, variant) route key and the bytes
// to forward. On a local rejection (oversize, empty, unreadable body,
// malformed key header) it writes the error envelope and returns
// ok=false; the caller accounts the failure.
func (r *Router) planRoute(w http.ResponseWriter, req *http.Request) (routePlan, bool) {
	if hk := req.Header.Get(ImageKeyHeader); hk != "" {
		// Streaming path: the client vouched for the key, the router
		// never touches the body. The key must look exactly like what it
		// claims to be — a full SHA-256 in lowercase hex — or arbitrary
		// client bytes would become route keys, poisoning the pin table,
		// the ETag table, and metrics cardinality.
		if !serve.ValidImageKey(hk) {
			serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest,
				"%s must be 64 lowercase hex characters (the full SHA-256 of the image), got %d bytes",
				ImageKeyHeader, len(hk))
			return routePlan{}, false
		}
		// The variant comes from the query string (the only spec a
		// body-less router can see); a spec part in the body that
		// disagrees only costs routing locality, never correctness — the
		// backend re-derives everything.
		variant, format := "", "vtk"
		if spec, err := serve.MeshSpecFromQuery(req.URL.Query()); err == nil {
			variant, format = spec.Variant(), spec.Format
		}
		return routePlan{
			routeKey: hk + "|" + variant,
			imageKey: hk, variant: variant, format: format,
			stream: req.Body,
		}, true
	}

	raw, err := serve.ReadSized(http.MaxBytesReader(w, req.Body, r.cfg.MaxRequestBytes),
		min(req.ContentLength, r.cfg.MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			serve.WriteError(w, http.StatusRequestEntityTooLarge, serve.CodeTooLarge,
				"request body exceeds the %d byte cap", r.cfg.MaxRequestBytes)
			return routePlan{}, false
		}
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, "reading body: %v", err)
		return routePlan{}, false
	}
	specJSON, image, err := serve.SplitSpecImage(req.Header.Get("Content-Type"), bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, "reading body: %v", err)
		return routePlan{}, false
	}
	if len(image) == 0 {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest,
			"empty body: expected an NRRD label image")
		return routePlan{}, false
	}

	// The variant mirrors the backend's coalescing/cache identity. A
	// malformed spec routes under the empty variant and travels on to
	// the backend, whose own parser owns the precise 400.
	variant, format := "", ""
	if req.URL.Path == "/v1/simulate" {
		if specJSON != nil {
			if sp, err := serve.ParseSimSpec(specJSON); err == nil {
				variant = sp.Mesh.Variant()
			}
		}
	} else {
		format = "vtk"
		switch {
		case specJSON != nil:
			if sp, err := serve.ParseMeshSpec(specJSON); err == nil {
				variant, format = sp.Variant(), sp.Format
			}
		default:
			if sp, err := serve.MeshSpecFromQuery(req.URL.Query()); err == nil {
				variant, format = sp.Variant(), sp.Format
			}
		}
	}
	key := serve.ImageKey(image)
	return routePlan{
		routeKey: key + "|" + variant,
		imageKey: key, variant: variant, format: format,
		raw: raw,
	}, true
}

// forward sends one proxy attempt. The original request's context —
// and with it the client's deadline and disconnect — governs the
// round trip, so a backend never works for a caller that already gave
// up, and the backend's own deadline-based admission sees the true
// budget.
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
		if r.budget != nil {
			// Successes are what earn retry allowance back.
			r.budget.deposit()
		}
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

// answer503 writes the router-originated unavailability envelope with
// the shared Retry-After policy: the estimate is the time the health
// loop needs to eject-and-detect (FailThreshold probe periods),
// jittered and clamped to [1,30]s exactly as the backends do.
func (r *Router) answer503(w http.ResponseWriter, format string, args ...any) {
	est := float64(r.cfg.FailThreshold) * r.cfg.ProbeInterval.Seconds()
	w.Header().Set("Retry-After",
		strconv.Itoa(serve.ClampRetryAfter(est, r.cfg.Jitter)))
	serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable, format, args...)
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
	serve.WriteError(w, serve.StatusClientClosedRequest, serve.CodeCanceled,
		"client canceled during proxy to %s: %v", backend, err)
	r.mFailed.Inc()
}

// drainResult is the POST /v1/drain response document.
type drainResult struct {
	Backend       string `json:"backend"`
	NodeID        string `json:"node_id,omitempty"`
	KeysPrewarmed int    `json:"keys_prewarmed"`
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
	backend := strings.TrimRight(strings.TrimSpace(req.URL.Query().Get("backend")), "/")
	if backend != "" && !strings.Contains(backend, "://") {
		backend = "http://" + backend
	}
	r.mu.Lock()
	_, known := r.backends[backend]
	r.mu.Unlock()
	if !known {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest,
			"unknown backend %q: want one of the configured base URLs", backend)
		return
	}

	ctx, cancel := context.WithTimeout(req.Context(), 10*time.Second)
	defer cancel()
	dreq, err := http.NewRequestWithContext(ctx, http.MethodPost, backend+"/v1/drain", nil)
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, serve.CodeInternal, "building drain request: %v", err)
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
		serve.WriteError(w, http.StatusBadGateway, serve.CodeUnavailable,
			"backend %s answered drain with status %d", backend, resp.StatusCode)
		return
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&ann); err != nil {
		serve.WriteError(w, http.StatusBadGateway, serve.CodeUnavailable,
			"backend %s drain response unreadable: %v", backend, err)
		return
	}
	for _, k := range ann.Keys {
		r.etags.learn(k.ImageKey+"|"+k.Variant, k.ETag, backend)
	}
	r.ejectBackend(backend)
	r.mDrains.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(drainResult{
		Backend: backend, NodeID: ann.NodeID,
		KeysPrewarmed: len(ann.Keys), Ejected: true,
	})
}

// handleReadyz: the router is ready when it can route — at least one
// backend in the ring.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	n := r.ring.Size()
	r.mu.Unlock()
	if n == 0 {
		est := float64(r.cfg.FailThreshold) * r.cfg.ProbeInterval.Seconds()
		w.Header().Set("Retry-After",
			strconv.Itoa(serve.ClampRetryAfter(est, r.cfg.Jitter)))
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable,
			"no healthy backends")
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
	HedgedWon          int64          `json:"hedged_probes_won,omitempty"`
	HedgedLost         int64          `json:"hedged_probes_lost,omitempty"`
	HedgedStarved      int64          `json:"hedged_probes_starved,omitempty"`
	InflightKeys       []string       `json:"inflight_keys,omitempty"`
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
		HedgedWon:          r.mHedged.Value("won"),
		HedgedLost:         r.mHedged.Value("lost"),
		HedgedStarved:      r.mHedged.Value("starved"),
	}
	if r.budget != nil {
		st.RetryBudgetTokens = r.budget.balance()
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
