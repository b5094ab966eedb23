// Package wire is the contract the two serving tiers speak and both
// must derive identically: the error envelope and its codes, the
// tier-private headers, the Retry-After policy, the (image key, variant,
// entity tag) identity of a request, and the request specs with their
// parsing and validation, and the memo both tiers derive an upload's
// image key through. pi2md answers with it, pi2mrouter routes on it; it
// imports nothing from this module, so the router links no mesher.
package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"strings"
)

// StatusClientClosedRequest is nginx's non-standard 499: the client
// canceled the request before the server could answer.
const StatusClientClosedRequest = 499

// NodeHeader is the response header carrying the serving backend's
// boot-stable node identity.
const NodeHeader = "X-Pi2md-Node"

// CacheOnlyHeader is the cache-only fast-path request header on
// POST /v1/mesh: with value "1" the request is answered straight from
// the persistent result cache — hit → the full encoded response with
// its ETag, miss → 404 cache_miss — and never touches the queue, the
// session pool, coalescing, or breakers. Responses served this way
// (from the header or from GET /v1/cache) echo the same header with
// value "hit", so a proxy can prove no meshing happened. Cache-only
// reads are also served while draining: a draining node stays a read
// replica until the process exits.
const CacheOnlyHeader = "X-Pi2md-Cache-Only"

// ValidImageKey reports whether s has the only shape an image key can
// have: the full SHA-256 content hash as 64 lowercase hex characters.
// Both tiers use it to reject client-vouched keys before they become
// route keys, cache paths, or metric labels.
func ValidImageKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ImageKey is the image identity used for shard routing, the
// parsed-image cache, and single-flight coalescing: the full SHA-256
// content hash of the serialized input. It must be the complete
// digest — a truncated key that collides would silently serve a wrong
// cached image to the colliding request and fan a wrong mesh out to
// every coalesced waiter.
func ImageKey(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// EntityTag builds the quoted HTTP entity tag for a cached snapshot in
// one response format. The format is folded in because the same
// snapshot encodes to different bytes as VTK and OFF — one blob, two
// entities. The router builds candidate entity tags from its learned
// raw etags with it, so the two tiers can never disagree on the quoting
// or the format suffix.
func EntityTag(etag, format string) string {
	return `"` + etag + "-" + format + `"`
}

// ETagMatch implements If-None-Match: a literal "*" matches anything,
// otherwise the comma-separated candidate list is compared tag by tag.
// Weak validators (W/ prefix) compare by their opaque part — weak
// comparison is permitted for If-None-Match. The router answers local
// 304s with this exact comparison.
func ETagMatch(header, entity string) bool {
	opaque := func(t string) string {
		t = strings.TrimSpace(t)
		t = strings.TrimPrefix(t, "W/")
		return t
	}
	want := opaque(entity)
	for _, cand := range strings.Split(header, ",") {
		c := opaque(cand)
		if c == "*" || c == want {
			return true
		}
	}
	return false
}

// ClampRetryAfter is the serving tier's one Retry-After policy: the
// latency estimate (seconds) is jittered ±20% by jitter (so
// synchronized clients don't retry in lockstep) and clamped to [1, 30]
// seconds. Both the backend's capacity rejections and the router's
// own 503s (backend down, ring empty) derive their hints here — a
// router must never echo a raw cooldown the backend would have
// clamped.
func ClampRetryAfter(estSeconds float64, jitter func() float64) int {
	if jitter != nil {
		estSeconds *= 0.8 + 0.4*jitter()
	}
	sec := int(math.Ceil(estSeconds))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// maxPresize bounds what a declared Content-Length may make ReadSized
// allocate before a byte has arrived: a length is a claim, and a client
// that claims 64 MiB and sends nothing must not cost 64 MiB.
const maxPresize = 1 << 20

// ReadSized reads r to EOF like io.ReadAll, into a buffer presized from
// the body's declared length (a Request.ContentLength), so that a body
// as long as it says is read without a single growth copy. A negative
// length means unknown and is io.ReadAll. A wrong declaration costs
// only what it saves: a longer body is still read whole, a shorter one
// leaves spare capacity no larger than maxPresize. Size capping is the
// caller's job (wrap r in an http.MaxBytesReader).
func ReadSized(r io.Reader, declared int64) ([]byte, error) {
	if declared < 0 {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(declared, maxPresize)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}
