package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/img"
)

// ErrPoolClosed is returned by Checkout after Close.
var ErrPoolClosed = errors.New("serve: pool closed")

// Pool multiplexes work over a fixed number of warm core.Sessions.
// Checkout hands out an exclusive Lease on one session, preferring
// the session that last ran the same image identity so the session's
// cached distance transform actually hits; Release returns it. A slot
// whose session failed, was abandoned or sat idle too long gets a
// fresh, empty session in the same critical section (replaceLocked),
// so every slot is always schedulable.
//
// The pool relies on core.Session's busy-rejection contract
// (ErrSessionBusy) only as a backstop: leases already guarantee
// single ownership, so a busy rejection through a lease indicates a
// caller bug and is surfaced as an error.
type Pool struct {
	cfg core.Config

	mu      sync.Mutex
	entries []*poolEntry
	closed  bool

	// waiters is the blocked-checkout queue, ordered earliest-deadline-
	// first (ties FIFO by arrival), and at most maxWaiters long. When a
	// session frees up it is handed to the most deadline-pressed waiter,
	// not whichever goroutine the scheduler happens to wake — a
	// near-deadline interactive mesh job overtakes a queued long-deadline
	// solve.
	waiters    waiterHeap
	waiterSeq  uint64
	maxWaiters int

	checkouts    int64
	affinityHits int64
	evictions    int64
	quarantines  int64 // bad or abandoned sessions replaced

	// sessions sums the reuse counters of every run a lease has finished
	// (Lease.RunTuned's before/after delta), so Stats never has to ask a
	// session — a busy one holds its own lock for the whole run.
	sessions core.SessionStats
}

// poolEntry is one slot of the pool.
type poolEntry struct {
	s        *core.Session
	key      string // image identity of the last run ("" = never ran)
	busy     bool
	lastUsed time.Time
}

// PoolStats is a snapshot of the pool's behavior.
type PoolStats struct {
	Size         int   `json:"size"`
	Busy         int   `json:"busy"`
	Checkouts    int64 `json:"checkouts"`
	AffinityHits int64 `json:"affinity_hits"`
	Evictions    int64 `json:"evictions"`
	Quarantines  int64 `json:"quarantines_total"`

	// Sessions aggregates the reuse counters of every run served through
	// a lease, sessions since evicted or replaced included.
	Sessions core.SessionStats `json:"sessions"`
}

// NewPool builds a pool of n sessions sharing one configuration
// template, where at most maxWaiters checkouts may wait for a session
// at once. Sessions start empty (a core.Session allocates lazily on
// first Run), so construction is cheap; the pool warms as it serves.
func NewPool(n, maxWaiters int, cfg core.Config) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: pool size must be positive, got %d", n)
	}
	cfg.Image = nil
	p := &Pool{cfg: cfg, entries: make([]*poolEntry, n), maxWaiters: maxWaiters}
	for i := range p.entries {
		s, err := core.NewSession(cfg)
		if err != nil {
			return nil, err
		}
		p.entries[i] = &poolEntry{s: s}
	}
	return p, nil
}

// Size returns the number of sessions in the pool.
func (p *Pool) Size() int { return len(p.entries) }

// Lease is exclusive ownership of one pool session between Checkout
// and Release.
type Lease struct {
	p        *Pool
	e        *poolEntry
	s        *core.Session // captured at checkout; stable across slot replacements
	key      string
	affinity bool
	released bool

	// bad is the health outcome the caller recorded for this lease's
	// runs (MarkBad); abandoned marks a lease detached by the watchdog.
	bad       bool
	abandoned bool

	// edtHit and warm record the session's reuse behavior across the
	// lease's runs.
	edtHit bool
	warm   bool
}

// waiter is one goroutine blocked in Checkout. deadline is the
// caller's context deadline (zero = none, sorts last); seq breaks ties
// FIFO. ch carries the granted lease and is buffered so the granter
// never blocks; idx is the heap position, -1 once popped (granted) or
// removed (canceled).
type waiter struct {
	key      string
	deadline time.Time
	seq      uint64
	ch       chan *Lease
	idx      int
}

// waiterHeap orders waiters earliest-deadline-first; waiters without a
// deadline sort after every deadline-bearing one, and equal deadlines
// fall back to arrival order.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	di, dj := h[i].deadline, h[j].deadline
	if di.IsZero() != dj.IsZero() {
		return !di.IsZero()
	}
	if !di.IsZero() && !di.Equal(dj) {
		return di.Before(dj)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.idx = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.idx = -1
	*h = old[:n-1]
	return w
}

// grantLocked (p.mu held) hands free sessions to blocked waiters in
// deadline order: the earliest-deadline waiter gets the session its
// affinity prefers. It stops when no session is free or no waiter
// remains.
func (p *Pool) grantLocked() {
	for len(p.waiters) > 0 {
		e := p.pickFree(p.waiters[0].key)
		if e == nil {
			return
		}
		w := heap.Pop(&p.waiters).(*waiter)
		w.ch <- p.leaseLocked(e, w.key)
	}
}

// leaseLocked (p.mu held) is the one place a session changes hands: it
// marks the free entry busy, accounts the checkout and its affinity,
// and wraps it in a Lease.
func (p *Pool) leaseLocked(e *poolEntry, key string) *Lease {
	e.busy = true
	p.checkouts++
	hit := key != "" && e.key == key
	if hit {
		p.affinityHits++
	}
	return &Lease{p: p, e: e, s: e.s, key: key, affinity: hit}
}

// failWaitersLocked (p.mu held) wakes every blocked waiter with a
// pool-closed verdict by closing their grant channels.
func (p *Pool) failWaitersLocked() {
	for _, w := range p.waiters {
		w.idx = -1
		close(w.ch)
	}
	p.waiters = nil
}

// Waiters reports how many checkouts are currently blocked: the queue
// depth admission, Retry-After and the brownout controller read.
func (p *Pool) Waiters() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiters)
}

// pickFree selects an unleased entry, preferring exact image-identity
// affinity, then any session that has run before (warm arenas), then a
// cold one.
func (p *Pool) pickFree(key string) *poolEntry {
	var warm, cold *poolEntry
	for _, e := range p.entries {
		if e.busy {
			continue
		}
		if key != "" && e.key == key {
			return e
		}
		if e.key != "" {
			if warm == nil {
				warm = e
			}
		} else if cold == nil {
			cold = e
		}
	}
	if cold != nil {
		return cold // a never-used session beats evicting a warm cache
	}
	return warm
}

// Checkout leases a free session at once; with none free it waits (or
// until ctx is done), unless maxWaiters checkouts already do — then it
// fails with ErrQueueFull. A checkout that finds a free session never
// counts against the queue. key names the image identity the caller
// intends to run — typically a content hash of the input — and steers
// the checkout to the session most likely to hold a warm distance
// transform for it. Waiting checkouts are served earliest-deadline-
// first: a freed session goes to the waiter whose ctx deadline is
// nearest, not to an arbitrary scheduler wakeup.
func (p *Pool) Checkout(ctx context.Context, key string) (*Lease, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if e := p.pickFree(key); e != nil {
		l := p.leaseLocked(e, key)
		p.mu.Unlock()
		return l, nil
	}
	if len(p.waiters) >= p.maxWaiters {
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
	if err := ctx.Err(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	w := &waiter{key: key, seq: p.waiterSeq, ch: make(chan *Lease, 1)}
	p.waiterSeq++
	if dl, ok := ctx.Deadline(); ok {
		w.deadline = dl
	}
	heap.Push(&p.waiters, w)
	p.mu.Unlock()

	select {
	case l, ok := <-w.ch:
		if !ok {
			return nil, ErrPoolClosed
		}
		return l, nil
	case <-ctx.Done():
		p.mu.Lock()
		if w.idx >= 0 {
			heap.Remove(&p.waiters, w.idx)
			p.mu.Unlock()
			return nil, ctx.Err()
		}
		p.mu.Unlock()
		// Lost the race: a grant (or close) is already in flight. Take
		// it and hand the session straight to the next waiter — it must
		// not leak on this abandoned checkout.
		if l, ok := <-w.ch; ok {
			p.mu.Lock()
			l.e.busy = false
			// The grant was never used. affinityHits keeps it: it is read
			// as a Prometheus counter, which must never decrease.
			p.checkouts--
			if p.closed {
				l.s.Close()
			} else {
				p.grantLocked()
			}
			p.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// AffinityHit reports whether the checkout landed on the session that
// last ran the same image identity.
func (l *Lease) AffinityHit() bool { return l.affinity }

// EDTHit reports whether any run on this lease reused the session's
// cached distance transform.
func (l *Lease) EDTHit() bool { return l.edtHit }

// WarmRun reports whether any run on this lease reused warm arenas.
func (l *Lease) WarmRun() bool { return l.warm }

// RunTuned executes one image-to-mesh conversion on the leased session
// with per-run configuration overrides (nil for none; see
// core.Session.RunTuned). The caller must extract everything it needs
// from the Result before releasing the lease: the next run on the same
// session recycles the mesh arenas underneath it.
func (l *Lease) RunTuned(ctx context.Context, image *img.Image, tune func(*core.Config)) (*core.Result, error) {
	if l.released {
		return nil, errors.New("serve: Run on a released Lease")
	}
	before := l.s.Stats()
	res, err := l.s.RunTuned(ctx, image, tune)
	after := l.s.Stats()
	if after.WarmEDTHits > before.WarmEDTHits {
		l.edtHit = true
	}
	if after.WarmRuns > before.WarmRuns {
		l.warm = true
	}
	p := l.p
	p.mu.Lock()
	p.sessions.Runs += after.Runs - before.Runs
	p.sessions.WarmRuns += after.WarmRuns - before.WarmRuns
	p.sessions.WarmEDTHits += after.WarmEDTHits - before.WarmEDTHits
	p.sessions.BusyRejects += after.BusyRejects - before.BusyRejects
	p.mu.Unlock()
	return res, err
}

// MarkBad records that this lease's run engaged the failure machinery
// — a run error, a panic (recovered or not), a degraded outcome, an
// abort for a non-caller reason — so the session's arenas were touched
// by code that failed. At release the slot gets a fresh session.
func (l *Lease) MarkBad() { l.bad = true }

// Release returns the session to the pool; the session of a lease
// marked bad is closed and replaced instead. Idempotent; a no-op on
// leases detached by Abandon.
func (l *Lease) Release() {
	if l.released || l.abandoned {
		return
	}
	l.released = true
	p := l.p
	e := l.e
	var old *core.Session
	p.mu.Lock()
	e.busy = false
	switch {
	case p.closed:
		old = l.s // the pool closed while this lease was out
	case l.bad:
		p.quarantines++
		old = p.replaceLocked(e)
	default:
		if l.key != "" {
			e.key = l.key
		}
		e.lastUsed = time.Now()
		p.grantLocked()
	}
	p.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// Abandon detaches a lease whose run ignored cancellation: the slot
// gets a fresh session at once, so pool capacity never drops, while the
// wedged session stays out of the pool. The caller must invoke
// FinishAbandoned once the runaway run finally returns, to close the
// detached session — Close would block until then. Idempotent.
func (l *Lease) Abandon() {
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.released || l.abandoned {
		return
	}
	l.abandoned = true
	l.e.busy = false
	if !p.closed {
		p.quarantines++
		p.replaceLocked(l.e)
	}
}

// FinishAbandoned closes the session detached by Abandon. Call it
// after the runaway run has returned; Close blocks until the session
// is idle, so calling it early stalls the caller, not the pool.
func (l *Lease) FinishAbandoned() {
	if l.abandoned {
		l.s.Close()
	}
}

// replaceLocked (p.mu held) is the one way a slot changes sessions —
// after a bad lease, an abandoned one or an idle eviction: it installs
// a fresh, empty session with no affinity and hands the slot to the
// next waiter. It returns the old session for the caller to close once
// p.mu is released.
func (p *Pool) replaceLocked(e *poolEntry) *core.Session {
	fresh, err := core.NewSession(p.cfg)
	if err != nil {
		// The template validated at NewPool time; a failure here is
		// unreachable, but never leave a closed session in the pool.
		panic(fmt.Sprintf("serve: replacing a pool session: %v", err))
	}
	old := e.s
	e.s, e.key, e.lastUsed = fresh, "", time.Time{}
	p.grantLocked()
	return old
}

// EvictIdle closes sessions that have been idle longer than maxIdle,
// releasing their retained arenas, grids and EDT buffers, and
// replaces them with empty sessions that allocate lazily on their next
// run. It returns how many sessions were evicted. Sessions that never
// ran are never evicted (there is nothing to release).
func (p *Pool) EvictIdle(maxIdle time.Duration) int {
	cutoff := time.Now().Add(-maxIdle)
	var evicted []*core.Session
	p.mu.Lock()
	if !p.closed {
		for _, e := range p.entries {
			if e.busy || e.key == "" || e.lastUsed.After(cutoff) {
				continue
			}
			evicted = append(evicted, p.replaceLocked(e))
		}
		p.evictions += int64(len(evicted))
	}
	p.mu.Unlock()
	for _, s := range evicted {
		s.Close()
	}
	return len(evicted)
}

// Stats snapshots the pool's own counters. It touches no session — a
// busy one holds its lock for the whole run, and p.mu is what every
// checkout, release and grant waits on — so a /metrics scrape costs a
// loop over the slots.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Size:         len(p.entries),
		Checkouts:    p.checkouts,
		AffinityHits: p.affinityHits,
		Evictions:    p.evictions,
		Quarantines:  p.quarantines,
		Sessions:     p.sessions,
	}
	for _, e := range p.entries {
		if e.busy {
			st.Busy++
		}
	}
	return st
}

// Close fails all pending and future checkouts with ErrPoolClosed and
// closes every idle session. Leases already handed out stay valid
// until released; their sessions close at release. Idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, e := range p.entries {
		if !e.busy {
			e.s.Close()
		}
	}
	p.failWaitersLocked()
	return nil
}
