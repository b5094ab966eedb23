package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/img"
)

// ErrPoolClosed is returned by Checkout after Close.
var ErrPoolClosed = errors.New("serve: pool closed")

// Pool multiplexes work over a fixed number of warm core.Sessions.
// Checkout hands out an exclusive Lease on the session released last;
// Release returns it. A slot whose session failed or sat idle too long
// gets a fresh, empty session in the same critical section
// (replaceLocked), so every slot is always schedulable.
//
// The pool relies on core.Session's busy-rejection contract
// (ErrSessionBusy) only as a backstop: leases already guarantee
// single ownership, so a busy rejection through a lease indicates a
// caller bug and is surfaced as an error.
type Pool struct {
	cfg  core.Config
	size int

	mu sync.Mutex

	// free is a stack of idle slots, the one released last on top, so a
	// client re-meshing one image sequentially lands on the session that
	// holds its distance transform however large the pool.
	free   []*poolEntry
	closed bool

	// waiters is the blocked-checkout queue in arrival order, at most
	// maxWaiters long. A freed slot goes to the oldest waiter; it is
	// non-empty only while free is empty.
	waiters    []chan *Lease
	maxWaiters int

	evictions   int64
	quarantines int64 // bad sessions replaced

	// sessions sums the reuse counters of every run a lease has finished
	// (Lease.RunTuned's before/after delta), so Stats never has to ask a
	// session — a busy one holds its own lock for the whole run.
	sessions core.SessionStats
}

// poolEntry is one slot of the pool.
type poolEntry struct {
	s        *core.Session
	lastUsed time.Time // release after its last run (zero = never ran)
}

// PoolStats is a snapshot of the pool's behavior.
type PoolStats struct {
	Busy        int
	Evictions   int64
	Quarantines int64

	// Sessions aggregates the reuse counters of every run served through
	// a lease, sessions since evicted or replaced included.
	Sessions core.SessionStats
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
	p := &Pool{cfg: cfg, size: n, free: make([]*poolEntry, n), maxWaiters: maxWaiters}
	for i := range p.free {
		s, err := core.NewSession(cfg)
		if err != nil {
			return nil, err
		}
		p.free[i] = &poolEntry{s: s}
	}
	return p, nil
}

// Size returns the number of sessions in the pool.
func (p *Pool) Size() int { return p.size }

// Lease is exclusive ownership of one pool session between Checkout
// and Release.
type Lease struct {
	p        *Pool
	e        *poolEntry
	s        *core.Session // captured at checkout; stable across slot replacements
	released bool

	// bad is the health outcome the caller recorded for this lease's
	// runs (MarkBad).
	bad bool

	// ran records that the lease ran its session.
	ran bool
}

// putLocked (p.mu held) is the one way a slot becomes free: it hands
// the slot to the oldest waiter, or pushes it on the free stack.
func (p *Pool) putLocked(e *poolEntry) {
	if len(p.waiters) == 0 {
		p.free = append(p.free, e)
		return
	}
	ch := p.waiters[0]
	p.waiters = p.waiters[1:]
	ch <- &Lease{p: p, e: e, s: e.s}
}

// Waiters reports how many checkouts are currently blocked: the queue
// depth admission, Retry-After and the brownout controller read.
func (p *Pool) Waiters() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiters)
}

// Checkout leases the session released last at once; with none free
// it waits (or until ctx is done), unless maxWaiters checkouts already
// do — then it fails with ErrQueueFull. A checkout that finds a free
// session never counts against the queue. Waiting checkouts are served
// in arrival order: every lease lasts one mesh run, so no waiter can
// starve behind a long one.
func (p *Pool) Checkout(ctx context.Context) (*Lease, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return &Lease{p: p, e: e, s: e.s}, nil
	}
	if len(p.waiters) >= p.maxWaiters {
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
	if err := ctx.Err(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// Buffered, so the granter never blocks.
	ch := make(chan *Lease, 1)
	p.waiters = append(p.waiters, ch)
	p.mu.Unlock()

	select {
	case l, ok := <-ch:
		if !ok {
			return nil, ErrPoolClosed
		}
		return l, nil
	case <-ctx.Done():
		p.mu.Lock()
		if i := slices.Index(p.waiters, ch); i >= 0 {
			p.waiters = slices.Delete(p.waiters, i, i+1)
			p.mu.Unlock()
			return nil, ctx.Err()
		}
		p.mu.Unlock()
		// Lost the race: a grant (or close) is already in flight. The
		// session must not leak on this abandoned checkout.
		if l, ok := <-ch; ok {
			l.Release()
		}
		return nil, ctx.Err()
	}
}

// RunTuned executes one image-to-mesh conversion on the leased session
// with per-run configuration overrides (nil for none; see
// core.Session.RunTuned). The caller must extract everything it needs
// from the Result before releasing the lease: the next run on the same
// session recycles the mesh arenas underneath it.
func (l *Lease) RunTuned(ctx context.Context, image *img.Image, tune func(*core.Config)) (*core.Result, error) {
	if l.released {
		return nil, errors.New("serve: Run on a released Lease")
	}
	l.ran = true
	before := l.s.Stats()
	res, err := l.s.RunTuned(ctx, image, tune)
	after := l.s.Stats()
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
// — a run error, a panic, an abort for a non-caller reason — so the session's arenas were touched
// by code that failed. At release the slot gets a fresh session.
func (l *Lease) MarkBad() { l.bad = true }

// Release returns the session to the pool; the session of a lease
// marked bad is closed and replaced instead. Idempotent.
func (l *Lease) Release() {
	if l.released {
		return
	}
	l.released = true
	p := l.p
	e := l.e
	var old *core.Session
	p.mu.Lock()
	switch {
	case p.closed:
		old = l.s // the pool closed while this lease was out
	case l.bad:
		p.quarantines++
		old = p.replaceLocked(e)
	case l.ran:
		e.lastUsed = time.Now()
	}
	p.putLocked(e)
	p.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// replaceLocked (p.mu held) is the one way a slot changes sessions —
// after a bad lease or an idle eviction: it installs
// a fresh, empty session and returns the old one for the caller to
// close once p.mu is released.
func (p *Pool) replaceLocked(e *poolEntry) *core.Session {
	fresh, err := core.NewSession(p.cfg)
	if err != nil {
		// The template validated at NewPool time; a failure here is
		// unreachable, but never leave a closed session in the pool.
		panic(fmt.Sprintf("serve: replacing a pool session: %v", err))
	}
	old := e.s
	e.s, e.lastUsed = fresh, time.Time{}
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
		for _, e := range p.free {
			if e.lastUsed.IsZero() || e.lastUsed.After(cutoff) {
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
// checkout, release and grant waits on.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Busy:        p.size - len(p.free),
		Evictions:   p.evictions,
		Quarantines: p.quarantines,
		Sessions:    p.sessions,
	}
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
	for _, e := range p.free {
		e.s.Close()
	}
	for _, ch := range p.waiters {
		close(ch)
	}
	p.waiters = nil
	return nil
}
