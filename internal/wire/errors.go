package wire

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Error codes of the structured error envelope. Every 4xx/5xx the
// server emits carries one; clients branch on the code, humans read
// the reason.
const (
	CodeBadRequest  = "bad_request"  // malformed image, spec, or parameters
	CodeBadBC       = "bad_bc"       // a boundary-condition spec constrained no vertex
	CodeTooLarge    = "too_large"    // request body over MaxRequestBytes
	CodeQueueFull   = "queue_full"   // admission queue at capacity
	CodeDeadline    = "deadline"     // job or solve deadline expired
	CodeCanceled    = "canceled"     // the client went away (499)
	CodeOverloaded  = "overloaded"   // even the coarsest brownout tier can't meet the deadline
	CodeDraining    = "draining"     // server shutting down
	CodeUnavailable = "unavailable"  // pool closed / no session
	CodeCacheMiss   = "cache_miss"   // cache-only request, pair not cached (404)
	CodeSolveFailed = "solve_failed" // assembly or CG failure
	CodeInternal    = "internal"     // anything else
)

// ErrorEnvelope is the JSON error document every non-2xx response
// carries:
//
//	{"error": {"code": "queue_full", "reason": "...", "retry_after_s": 2}}
//
// retry_after_s mirrors the Retry-After header when one is set, so a
// JSON-only client never has to read headers to back off correctly.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's one member.
type ErrorBody struct {
	Code        string `json:"code"`
	Reason      string `json:"reason"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// WriteError writes the structured JSON error envelope with the given
// status and machine-readable code — the one rejection shape every
// tier speaks. The router uses it for its own 503s so a client can
// never tell a router-originated rejection from a backend one by
// format. It reads any Retry-After header already stamped on the
// response, so capacity call sites keep their set-header-then-error
// shape.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	var retry int
	if ra := w.Header().Get("Retry-After"); ra != "" {
		retry, _ = strconv.Atoi(ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{
		Code:        code,
		Reason:      fmt.Sprintf(format, args...),
		RetryAfterS: retry,
	}})
}
