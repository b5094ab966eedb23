package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/meshio"
	"repro/internal/wire"
)

// Handler returns the server's HTTP surface:
//
//	POST /v1/mesh      NRRD body (raw or gzip encoding) → VTK/OFF mesh
//	POST /v1/simulate  multipart spec+image → solved FEM field on the mesh
//	GET  /healthz      liveness (always "ok" while the process is alive)
//	GET  /readyz       readiness (503 while draining)
//	GET  /v1/stats     JSON serving statistics
//	GET  /metrics      Prometheus text exposition
//
// /v1/mesh accepts its knobs two ways, parsed into the same MeshSpec:
// query parameters (format=vtk|off, delta, max_elements,
// max_radius_edge, min_facet_angle, timeout) exactly as before, or a
// multipart/form-data body with a JSON "spec" part and an "image"
// part. When a spec part is present it wins wholesale over the query
// string. Every 4xx/5xx carries the JSON error envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/mesh", s.handleMesh)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/cache/{imageKey}", s.handleCacheProbe)
	mux.HandleFunc("GET /v1/cache/{imageKey}/{variant...}", s.handleCacheProbe)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.countRequests(mux)
}

// countRequests wraps the mux to record every response's status code
// and stamp the node identity: every response — success or rejection —
// carries X-Pi2md-Node, so a router test can assert which backend a
// request landed on without parsing bodies.
func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wire.NodeHeader, s.nodeID)
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(cw, r)
		s.mRequests.With(strconv.Itoa(cw.code)).Inc()
	})
}

type codeWriter struct {
	http.ResponseWriter
	code    int
	written bool
}

func (w *codeWriter) WriteHeader(code int) {
	if !w.written {
		w.code = code
		w.written = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(b []byte) (int, error) {
	w.written = true
	return w.ResponseWriter.Write(b)
}

// readUpload reads the request body under the MaxRequestBytes cap and
// splits it into its JSON spec part (nil when there is none) and its
// image payload; over the cap is 413 too_large, unreadable 400.
func (s *Server) readUpload(w http.ResponseWriter, r *http.Request) (specJSON, image []byte, err error) {
	specJSON, image, err = wire.SplitSpecImage(r.Header.Get("Content-Type"),
		http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes), min(r.ContentLength, s.cfg.MaxRequestBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return nil, nil, &requestError{http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
			fmt.Sprintf("request body exceeds the %d byte cap", s.cfg.MaxRequestBytes)}
	case err != nil:
		return nil, nil, badRequest("reading body: %v", err)
	}
	return specJSON, image, nil
}

// readMeshRequest resolves a request into its MeshSpec and image
// payload, honoring body-over-params precedence: a multipart "spec"
// part replaces the query string wholesale, a spec-less request parses
// the query exactly as the server always has. On failure it has
// answered and ok is false.
func (s *Server) readMeshRequest(w http.ResponseWriter, r *http.Request) (spec wire.MeshSpec, image []byte, ok bool) {
	specJSON, image, err := s.readUpload(w, r)
	switch {
	case err != nil:
	case len(image) == 0:
		err = badRequest("empty body: expected an NRRD label image")
	default:
		if spec, err = wire.ResolveMeshSpec(specJSON, r.URL.Query()); err != nil {
			err = badRequest("bad request: %v", err)
		}
	}
	if err != nil {
		s.writeMeshError(w, err)
		return wire.MeshSpec{}, nil, false
	}
	return spec, image, true
}

// requestError is a failure that is the request's own fault — an
// oversized or malformed upload, an undecodable image, a cache-only
// miss, boundary conditions that constrain no vertex of the actual mesh
// — carrying the status and envelope code it is answered with.
type requestError struct {
	status int
	code   string
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf(format, args...)}
}

// writeMeshError answers a failed walk, upload or solve: classify's
// status and envelope code, plus what the ending needs — the entity tag
// on a 304 (the client keeps validating with it), the breaker's own
// Retry-After on breaker_open (it knows when it will admit a probe), the
// queue-derived one on the other capacity codes (a canceled client is
// not invited back). Every endpoint answers through it, so no two can
// disagree on what a rejection looks like.
func (s *Server) writeMeshError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	var notMod *notModified
	var brkOpen *BreakerOpenError
	switch {
	case errors.As(err, &notMod):
		w.Header().Set("ETag", notMod.entity)
		w.WriteHeader(status)
		return
	case errors.As(err, &brkOpen):
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(brkOpen.RetryAfter.Seconds())))))
	case code == wire.CodeQueueFull, code == wire.CodeDeadline, code == wire.CodeWatchdog, code == wire.CodeOverloaded:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	wire.WriteError(w, status, code, "%v", err)
}

// handleMesh is POST /v1/mesh: parse the request, walk it, encode the
// mesh. Per-request quality knobs ride on top of the pool's session
// template via the tuned-run hook; the variant string canonicalizes the
// same knobs for the coalescing key and the result cache, so only jobs
// requesting the same mesh share a run or a cached entry (the format is
// per-waiter and excluded from the variant — it is part of the entity
// tag instead, since VTK and OFF bodies differ).
func (s *Server) handleMesh(w http.ResponseWriter, r *http.Request) {
	spec, body, ok := s.readMeshRequest(w, r)
	if !ok {
		return
	}
	s.reply(r.Context(), w, &job{
		key: s.uploads.Of(body), body: body, variant: spec.Variant(), tune: tune(&spec),
		format: spec.Format, ifNoneMatch: r.Header.Get("If-None-Match"),
		cacheOnly: r.Header.Get(wire.CacheOnlyHeader) == "1",
		timeout:   time.Duration(spec.Timeout), spec: &spec,
	})
}

// entity is one encoded reply held by the entity cache: exactly the
// bytes a verified blob encoded to in one format, plus what the ledgers
// need to book another answer from them. Concurrent responses share
// body; nothing writes to it after insertion.
type entity struct {
	body        []byte
	contentType string
	run         core.RunSummary
}

// reply walks j and answers how it ended: writeMeshError, or the
// snapshot in the job's format under its format-folded entity tag,
// encoded off-lease. A cache-only 200 or 304 is marked as such (a proxy
// can prove no meshing happened), a browned answer carries its tier. A
// body encoded for a cache hit — a pair asked for a second time — is
// kept for the third; a fresh run's is not, so never-seen images cannot
// fill the cache.
func (s *Server) reply(ctx context.Context, w http.ResponseWriter, j *job) {
	sr, err := s.walk(ctx, j)
	if j.tier > 0 {
		w.Header().Set(BrownoutHeader, strconv.Itoa(j.tier))
	}
	if status, _ := classify(err); j.cacheOnly && status < http.StatusBadRequest {
		w.Header().Set(wire.CacheOnlyHeader, "hit")
	}
	if err != nil {
		s.writeMeshError(w, err)
		return
	}
	tag := wire.EntityTag(sr.ETag, j.format)
	ent := sr.entity
	if ent == nil {
		contentType, encode := "text/vtk", meshio.AppendVTKSnapshot
		if j.format == "off" {
			contentType, encode = "model/off", meshio.AppendOFFSnapshot
		}
		// The mesh encoders cannot fail: there is no error to answer.
		body, _ := encodeBody(func(b []byte) ([]byte, error) { return encode(b, sr.Snapshot), nil })
		defer releaseBody(body)
		ent = &entity{*body, contentType, sr.Summary.Run}
		if n := int64(len(*body)); sr.Summary.CacheHit && sr.ETag != "" && n <= s.entities.cache.MaxBytes {
			// The pooled buffer goes back; the cache owns an exact-size copy.
			s.entities.add(tag, &entity{bytes.Clone(*body), contentType, sr.Summary.Run}, n)
		}
	}
	if sr.ETag != "" {
		w.Header().Set("ETag", tag)
	}
	sendBody(w, ent.contentType, ent.body)
}

// bodyPool keeps encode buffers between responses. A buffer that grew
// past maxPooledBody goes to the collector instead of back to the pool,
// so one huge mesh does not pin its body's size for the process's life.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 8 << 20

func releaseBody(body *[]byte) {
	if cap(*body) <= maxPooledBody {
		bodyPool.Put(body)
	}
}

// encodeBody runs an append-style encoder into a pooled buffer. Every
// 200 with an entity is encoded whole before its first header is set:
// that is what lets sendBody frame it by length, and what leaves an
// encode that fails still in time to be answered as the 500 it is, with
// nothing of the entity on the wire. A returned body goes to sendBody,
// then back through releaseBody.
func encodeBody(encode func([]byte) ([]byte, error)) (*[]byte, error) {
	body := bodyPool.Get().(*[]byte)
	var err error
	if *body, err = encode((*body)[:0]); err != nil {
		releaseBody(body)
		return nil, fmt.Errorf("encoding the response: %w", err)
	}
	return body, nil
}

// sendBody sends an encoded body under an exact Content-Length, in one
// Write: the response is length-framed, not chunked, so a client or a
// proxy can tell a truncated mesh from a complete one.
func sendBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// handleCacheProbe is GET /v1/cache/{imageKey}/{variant}: the body-less
// cache-only walk — the read a router sends across replicas before
// paying a re-mesh. The variant travels path-escaped (it may be empty —
// the default-knob variant — in which case the path is just the key);
// the format query parameter selects the encoding exactly as /v1/mesh
// does. A probe that already holds the entity costs a 304, not a body,
// and that 304 counts as a cache-only answer too.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	j := &job{key: r.PathValue("imageKey"), variant: r.PathValue("variant"),
		ifNoneMatch: r.Header.Get("If-None-Match"), cacheOnly: true}
	if !wire.ValidImageKey(j.key) {
		s.writeMeshError(w, badRequest("image key must be 64 lowercase hex characters (the full SHA-256 of the image)"))
		return
	}
	if unesc, err := url.PathUnescape(j.variant); err == nil {
		j.variant = unesc
	}
	format := wire.MeshSpec{Format: r.URL.Query().Get("format")}
	if err := format.Validate(); err != nil {
		s.writeMeshError(w, badRequest("%v", err))
		return
	}
	j.format = format.Format
	s.reply(r.Context(), w, j)
}

// drainKey is one warm-state handoff entry of the drain response.
type drainKey struct {
	ImageKey string `json:"image_key"`
	Variant  string `json:"variant"`
	ETag     string `json:"etag"`
}

// drainResponse is the POST /v1/drain document.
type drainResponse struct {
	NodeID   string     `json:"node_id"`
	Draining bool       `json:"draining"`
	Keys     []drainKey `json:"keys"`
}

// drainHandoffLimit bounds the MRU list a drain announcement returns —
// enough to pre-warm a router's routing table, small enough that the
// response stays one JSON document.
const drainHandoffLimit = 256

// handleDrain is POST /v1/drain: announce a planned drain. The server
// flips to draining (readyz 503, new mesh jobs rejected) and answers
// with its MRU cached keys so the caller — typically a router about to
// eject this node — can pre-warm replica reads and ETag state before
// traffic re-homes. The process keeps running; the operator still owns
// the real shutdown, and cache-only reads keep working meanwhile.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	keys := s.AnnounceDrain(drainHandoffLimit)
	out := drainResponse{NodeID: s.nodeID, Draining: true, Keys: make([]drainKey, 0, len(keys))}
	for _, ki := range keys {
		out.Keys = append(out.Keys, drainKey{ImageKey: ki.ImageKey, Variant: ki.Variant, ETag: ki.ETag})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleHealthz is pure liveness: if the process can answer, it is
// alive. Draining is a readiness concern — /readyz — so an orchestrator
// doesn't kill a pod that is merely finishing its in-flight work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz reports whether the server should receive new traffic:
// 503 while draining. Every pool slot always holds a usable session.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ready\n")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
