package serve

import (
	"errors"
	"fmt"
	"time"
)

// ErrBreakerOpen is the sentinel wrapped by BreakerOpenError: the
// coalesce key's circuit breaker is open and the job was fast-failed
// without consuming a session. The HTTP layer maps it to 503 with the
// breaker's own Retry-After.
var ErrBreakerOpen = errors.New("serve: circuit breaker open for this image/variant")

// BreakerOpenError rejects a job whose (image key, quality variant)
// breaker is open. RetryAfter is how long until the breaker will admit
// a half-open probe.
type BreakerOpenError struct {
	Key        string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: circuit breaker open for key %.24s… (retry in %v)", e.Key, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap lets errors.Is(err, ErrBreakerOpen) match.
func (e *BreakerOpenError) Unwrap() error { return ErrBreakerOpen }

// Breaker states. A key with no entry in the table is implicitly
// closed — entries are materialized only by failures, so the table
// stays empty in healthy operation.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerEntry is one per-coalesce-key circuit breaker. All fields are
// guarded by the Server's flightMu: the breaker table and the flight
// table protect the same admission decision (who gets to lead a run
// for this key), so they share a lock by design — admitLocked and
// reportLocked must only be called with flightMu held.
type breakerEntry struct {
	state     int
	fails     int       // consecutive leader failures while closed
	openedAt  time.Time // when the breaker last tripped
	probing   bool      // half-open: one trial leader is in flight
	lastTouch time.Time // for bounded-table pruning
}

// breakerTable is the per-key breaker collection, owned by Server and
// guarded by flightMu.
type breakerTable struct {
	entries   map[string]*breakerEntry
	threshold int           // consecutive failures that trip a breaker
	cooldown  time.Duration // open → half-open delay
}

// maxBreakerEntries bounds the table so an attacker cycling hostile
// images cannot grow it without bound; the least-recently-touched
// entries are pruned first. Losing an entry merely closes its breaker.
const maxBreakerEntries = 1024

func newBreakerTable(threshold int, cooldown time.Duration) *breakerTable {
	return &breakerTable{
		entries:   make(map[string]*breakerEntry),
		threshold: threshold,
		cooldown:  cooldown,
	}
}

// admitLocked decides whether a would-be leader for ckey may run.
// Caller holds flightMu. Returns ok=true to admit; otherwise
// retryAfter is the time until a probe will be admitted.
func (t *breakerTable) admitLocked(ckey string, now time.Time) (ok bool, retryAfter time.Duration) {
	e, present := t.entries[ckey]
	if !present || e.state == breakerClosed {
		return true, 0
	}
	e.lastTouch = now
	if e.state == breakerOpen {
		if wait := t.cooldown - now.Sub(e.openedAt); wait > 0 {
			return false, wait
		}
		// Cooldown elapsed: move to half-open and admit this caller as
		// the single trial probe.
		e.state = breakerHalfOpen
		e.probing = true
		return true, 0
	}
	// Half-open: exactly one probe at a time.
	if e.probing {
		return false, t.cooldown
	}
	e.probing = true
	return true, 0
}

// reportLocked records the outcome of an admitted leader run for ckey.
// Caller holds flightMu. Capacity rejections and caller cancellations
// are not reported — they say nothing about the key's health.
func (t *breakerTable) reportLocked(ckey string, ok bool, now time.Time) (tripped bool) {
	e, present := t.entries[ckey]
	if ok {
		// Success closes (and forgets) the breaker whatever its state.
		if present {
			delete(t.entries, ckey)
		}
		return false
	}
	if !present {
		e = &breakerEntry{}
		t.entries[ckey] = e
		t.pruneLocked(now)
	}
	e.lastTouch = now
	switch e.state {
	case breakerHalfOpen:
		// The probe failed: back to open, restart the cooldown.
		e.state = breakerOpen
		e.openedAt = now
		e.probing = false
		e.fails = t.threshold
		return true
	case breakerClosed:
		e.fails++
		if e.fails >= t.threshold {
			e.state = breakerOpen
			e.openedAt = now
			return true
		}
	}
	return false
}

// releaseProbeLocked returns a half-open probe slot without recording
// an outcome — the admitted leader was rejected for capacity or
// caller reasons before the key's health could be observed, so the
// next arrival gets to probe. Caller holds flightMu.
func (t *breakerTable) releaseProbeLocked(ckey string) {
	if e, ok := t.entries[ckey]; ok && e.state == breakerHalfOpen {
		e.probing = false
	}
}

// openCountLocked counts breakers that are not closed (open or
// half-open) — the pi2md_breaker_state gauge. Caller holds flightMu.
func (t *breakerTable) openCountLocked() int {
	n := 0
	for _, e := range t.entries {
		if e.state != breakerClosed {
			n++
		}
	}
	return n
}

// pruneLocked evicts the least-recently-touched entries once the table
// exceeds its bound. Caller holds flightMu.
func (t *breakerTable) pruneLocked(now time.Time) {
	for len(t.entries) > maxBreakerEntries {
		var oldestKey string
		var oldest time.Time
		first := true
		for k, e := range t.entries {
			if first || e.lastTouch.Before(oldest) {
				first = false
				oldestKey, oldest = k, e.lastTouch
			}
		}
		delete(t.entries, oldestKey)
	}
}
