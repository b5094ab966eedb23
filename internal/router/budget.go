package router

import "sync"

// The retry budget's shape: a fresh router may spend retrySeed retries
// before it has earned any, every successful relay earns retryRatio of
// one back, and retryCap bounds what a long quiet streak of successes
// can bank toward a retry storm.
const (
	retryRatio = 0.1
	retrySeed  = 10
	retryCap   = 100
)

// retryBudget is a Finagle-style token bucket bounding retry
// amplification fleet-wide: every successful relay deposits retryRatio
// tokens, every retry (fallback forward, extra cache probe) withdraws
// one. A healthy router earns one retry per ten successes — so against
// a dying fleet, where successes stop, the ladders stop fanning out
// instead of multiplying every client request into Replicas× backend
// load.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
}

func newRetryBudget() *retryBudget {
	return &retryBudget{tokens: retrySeed}
}

// deposit credits one successful request's worth of retry allowance.
func (b *retryBudget) deposit() {
	b.mu.Lock()
	b.tokens = min(b.tokens+retryRatio, retryCap)
	b.mu.Unlock()
}

// withdraw takes one token, reporting false when the bucket is empty —
// the caller must not retry.
func (b *retryBudget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// balance reports the current token count (stats/metrics surface).
func (b *retryBudget) balance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
