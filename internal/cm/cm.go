// Package cm implements the paper's four contention managers (Section
// 5): Aggressive-CM, Random-CM, Global-CM and Local-CM. A contention
// manager decides what a thread does after a rollback — nothing, sleep
// a random interval, or block until a making-progress thread wakes it
// — trading rollback work against idle time and, for the blocking
// schemes, provably eliminating livelocks.
package cm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Thresholds from the paper ("the value of r+ is set to 5",
// "the value for s+ is set to 10 ... this value yielded the best
// results").
const (
	// RandomRollbackLimit is r+: consecutive rollbacks before
	// Random-CM sleeps (Section 5.2).
	RandomRollbackLimit = 5
	// SuccessLimit is s+: consecutive successes before a blocking CM
	// wakes a waiter (Sections 5.3, 5.4).
	SuccessLimit = 10
)

// Manager reacts to the outcome of speculative operations. Methods are
// called by the owning thread only, identified by tid; implementations
// may block inside OnRollback.
type Manager interface {
	Name() string
	// OnRollback is invoked after thread tid rolled back an operation
	// because conflictTid held a needed vertex (-1 when unknown). It
	// may block the calling thread until it should retry.
	OnRollback(tid, conflictTid int)
	// OnSuccess is invoked after thread tid commits an operation.
	OnSuccess(tid int)
	// WakeOne unblocks one waiting thread, if any. Called by the load
	// balancer before a thread starts idling, so that the system never
	// ends up with every thread parked (Section 5.3's interaction with
	// the Begging List).
	WakeOne() bool
	// Quiesce permanently releases every blocked thread (termination).
	Quiesce()
	// ContentionNs reports the total nanoseconds thread tid has spent
	// blocked (or sleeping) inside this manager.
	ContentionNs(tid int) int64
}

// Coordinator tracks how many threads are inactive (blocked in a
// contention list or idling on the begging list) so that the last
// active thread never deactivates — the deadlock-avoidance rule of
// Section 5.3.
type Coordinator struct {
	n        int32
	inactive atomic.Int32
}

// NewCoordinator creates a coordinator for n threads.
func NewCoordinator(n int) *Coordinator { return &Coordinator{n: int32(n)} }

// TryDeactivate marks the caller inactive unless it is the last active
// thread, in which case it reports false and the caller must keep
// running.
func (c *Coordinator) TryDeactivate() bool {
	for {
		cur := c.inactive.Load()
		if cur >= c.n-1 {
			return false
		}
		if c.inactive.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Reactivate marks the caller active again.
func (c *Coordinator) Reactivate() { c.inactive.Add(-1) }

// Inactive returns the current number of inactive threads.
func (c *Coordinator) Inactive() int { return int(c.inactive.Load()) }

// pad keeps per-thread counters on distinct cache lines.
type padded struct {
	v atomic.Int64
	_ [7]int64
}

type overheads struct {
	ns []padded
}

func newOverheads(n int) overheads {
	return overheads{ns: make([]padded, n)}
}

func (o *overheads) add(tid int, d time.Duration) { o.ns[tid].v.Add(int64(d)) }
func (o *overheads) get(tid int) int64            { return o.ns[tid].v.Load() }

// post wakes a blocked thread parked on its one-slot token channel,
// without blocking: a token already pending will do. The thread's flag
// stays the condition and a token only means "look again", so a release
// that stores the flag before posting is never lost, and a stale token
// costs one extra check.
func post(token chan struct{}) {
	select {
	case token <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------
// Aggressive-CM

// Aggressive is the brute-force manager: threads retry immediately
// after a rollback. It is livelock-prone (Section 5.1) and exists as
// the baseline showing that contention management is a correctness
// problem, not just a performance one.
type Aggressive struct{}

// NewAggressive returns the no-op manager.
func NewAggressive() *Aggressive { return &Aggressive{} }

// Name implements Manager.
func (*Aggressive) Name() string { return "Aggressive-CM" }

// OnRollback implements Manager (no reaction).
func (*Aggressive) OnRollback(tid, conflictTid int) {}

// OnSuccess implements Manager (no reaction).
func (*Aggressive) OnSuccess(tid int) {}

// WakeOne implements Manager.
func (*Aggressive) WakeOne() bool { return false }

// Quiesce implements Manager.
func (*Aggressive) Quiesce() {}

// ContentionNs implements Manager.
func (*Aggressive) ContentionNs(tid int) int64 { return 0 }

// ---------------------------------------------------------------------
// Random-CM

// Random sleeps a random interval after r+ consecutive rollbacks
// (Section 5.2). It reduces livelock probability through randomness
// but cannot eliminate livelocks.
type Random struct {
	rollbacks []padded // consecutive rollbacks per thread
	rngs      []*rand.Rand
	ov        overheads
	// SleepUnit scales the random sleep; the paper uses milliseconds.
	sleepUnit time.Duration
}

// NewRandom creates a Random-CM for n threads. sleepUnit is the
// duration corresponding to the paper's 1 millisecond unit (tests pass
// smaller values).
func NewRandom(n int, sleepUnit time.Duration) *Random {
	r := &Random{
		rollbacks: make([]padded, n),
		rngs:      make([]*rand.Rand, n),
		ov:        newOverheads(n),
		sleepUnit: sleepUnit,
	}
	for i := range r.rngs {
		r.rngs[i] = rand.New(rand.NewSource(int64(i)*2654435761 + 17))
	}
	return r
}

// Name implements Manager.
func (*Random) Name() string { return "Random-CM" }

// OnRollback implements Manager.
func (r *Random) OnRollback(tid, conflictTid int) {
	n := r.rollbacks[tid].v.Add(1)
	if n > RandomRollbackLimit {
		d := time.Duration(1+r.rngs[tid].Intn(RandomRollbackLimit)) * r.sleepUnit
		start := time.Now()
		time.Sleep(d)
		r.ov.add(tid, time.Since(start))
		r.rollbacks[tid].v.Store(0)
	}
}

// OnSuccess implements Manager.
func (r *Random) OnSuccess(tid int) { r.rollbacks[tid].v.Store(0) }

// WakeOne implements Manager.
func (*Random) WakeOne() bool { return false }

// Quiesce implements Manager.
func (*Random) Quiesce() {}

// ContentionNs implements Manager.
func (r *Random) ContentionNs(tid int) int64 { return r.ov.get(tid) }

// ---------------------------------------------------------------------
// Global-CM

// Global maintains one global FIFO contention list: every rolled-back
// thread blocks on it and is woken, in order, by threads that have
// completed s+ consecutive operations (Section 5.3). Blocking schemes
// cannot livelock; the deadlock risk from everyone blocking is removed
// by the Coordinator's last-active-thread rule.
type Global struct {
	mu    sync.Mutex
	queue []int // FIFO of blocked thread ids

	waitFlag []atomic.Bool   // true while thread must wait
	tokens   []chan struct{} // where each thread parks
	success  []padded        // consecutive successes per thread
	done     atomic.Bool
	coord    *Coordinator
	ov       overheads
}

// NewGlobal creates a Global-CM for n threads sharing coord with the
// load balancer.
func NewGlobal(n int, coord *Coordinator) *Global {
	g := &Global{
		queue:    make([]int, 0, n),
		waitFlag: make([]atomic.Bool, n),
		tokens:   make([]chan struct{}, n),
		success:  make([]padded, n),
		coord:    coord,
		ov:       newOverheads(n),
	}
	for i := range g.tokens {
		g.tokens[i] = make(chan struct{}, 1)
	}
	return g
}

// Name implements Manager.
func (*Global) Name() string { return "Global-CM" }

// OnRollback implements Manager.
func (g *Global) OnRollback(tid, conflictTid int) {
	g.success[tid].v.Store(0)
	if g.done.Load() {
		return
	}
	if !g.coord.TryDeactivate() {
		return // last active thread keeps running
	}
	start := time.Now()
	g.waitFlag[tid].Store(true)
	g.mu.Lock()
	g.queue = append(g.queue, tid)
	g.mu.Unlock()
	for g.waitFlag[tid].Load() && !g.done.Load() {
		<-g.tokens[tid]
	}
	g.coord.Reactivate()
	g.ov.add(tid, time.Since(start))
}

// OnSuccess implements Manager.
func (g *Global) OnSuccess(tid int) {
	if s := g.success[tid].v.Add(1); s > SuccessLimit {
		if g.WakeOne() {
			g.success[tid].v.Store(0)
		}
	}
}

// WakeOne implements Manager.
func (g *Global) WakeOne() bool {
	g.mu.Lock()
	if len(g.queue) == 0 {
		g.mu.Unlock()
		return false
	}
	tid := g.queue[0]
	g.queue = g.queue[1:]
	g.mu.Unlock()
	g.release(tid)
	return true
}

// release clears a dequeued thread's wait flag, then wakes it.
func (g *Global) release(tid int) {
	g.waitFlag[tid].Store(false)
	post(g.tokens[tid])
}

// Quiesce implements Manager.
func (g *Global) Quiesce() {
	g.done.Store(true)
	g.mu.Lock()
	q := g.queue
	g.queue = nil
	g.mu.Unlock()
	// A thread that registers after the queue was taken sees done.
	for _, tid := range q {
		g.release(tid)
	}
}

// ContentionNs implements Manager.
func (g *Global) ContentionNs(tid int) int64 { return g.ov.get(tid) }

// ---------------------------------------------------------------------
// Local-CM

// Local distributes the contention list across threads (Section 5.4,
// Figure 2): thread i blocks on the contention list of the exact
// thread j it conflicted with and is woken when j has made enough
// progress. The busy_wait/conflicting-id handshake under per-thread
// mutexes guarantees that in any dependency cycle at least one thread
// blocks (no livelock) and at least one does not (no deadlock).
type Local struct {
	threads []localThread
	done    atomic.Bool
	coord   *Coordinator
	ov      overheads
}

type localThread struct {
	mu       sync.Mutex
	cl       []int         // contention list: threads blocked on this one
	busyWait atomic.Bool   // this thread has decided to block
	wake     chan struct{} // where this thread parks
	success  atomic.Int64
	_        [3]int64 // padding
}

// NewLocal creates a Local-CM for n threads.
func NewLocal(n int, coord *Coordinator) *Local {
	l := &Local{threads: make([]localThread, n), coord: coord, ov: newOverheads(n)}
	for i := range l.threads {
		l.threads[i].wake = make(chan struct{}, 1)
	}
	return l
}

// Name implements Manager.
func (*Local) Name() string { return "Local-CM" }

// OnRollback implements Manager. It is the Rollback_Occurred procedure
// of Figure 2c.
func (l *Local) OnRollback(tid, conflictTid int) {
	me := &l.threads[tid]
	me.success.Store(0)
	if conflictTid < 0 || conflictTid == tid || l.done.Load() {
		return
	}
	other := &l.threads[conflictTid]

	// Lock both threads' mutexes in id order (Figure 2c lines 4-5).
	first, second := me, other
	if conflictTid < tid {
		first, second = other, me
	}
	first.mu.Lock()
	second.mu.Lock()

	if other.busyWait.Load() {
		// The thread we depend on has itself decided to block: blocking
		// too could close a dependency cycle, so keep running (lines
		// 6-10).
		second.mu.Unlock()
		first.mu.Unlock()
		return
	}
	if !l.coord.TryDeactivate() {
		second.mu.Unlock()
		first.mu.Unlock()
		return
	}
	me.busyWait.Store(true)
	second.mu.Unlock()
	first.mu.Unlock()

	// Register on the conflicting thread's contention list and block
	// (lines 15-18).
	other.mu.Lock()
	other.cl = append(other.cl, tid)
	other.mu.Unlock()

	start := time.Now()
	for me.busyWait.Load() && !l.done.Load() {
		<-me.wake
	}
	l.coord.Reactivate()
	l.ov.add(tid, time.Since(start))
}

// OnSuccess implements Manager (Figure 2b).
func (l *Local) OnSuccess(tid int) {
	me := &l.threads[tid]
	if s := me.success.Add(1); s > SuccessLimit {
		if l.wakeFrom(tid) {
			me.success.Store(0)
		}
	}
}

// wakeFrom pops one waiter from thread tid's contention list.
func (l *Local) wakeFrom(tid int) bool {
	me := &l.threads[tid]
	me.mu.Lock()
	if len(me.cl) == 0 {
		me.mu.Unlock()
		return false
	}
	waiter := me.cl[0]
	me.cl = me.cl[1:]
	me.mu.Unlock()
	l.release(waiter)
	return true
}

// release clears a dequeued waiter's busy_wait flag, then wakes it.
func (l *Local) release(waiter int) {
	w := &l.threads[waiter]
	w.busyWait.Store(false)
	post(w.wake)
}

// WakeOne implements Manager: scan the per-thread lists for any
// waiter.
func (l *Local) WakeOne() bool {
	for i := range l.threads {
		if l.wakeFrom(i) {
			return true
		}
	}
	return false
}

// Quiesce implements Manager.
func (l *Local) Quiesce() {
	l.done.Store(true)
	for i := range l.threads {
		t := &l.threads[i]
		t.mu.Lock()
		cl := t.cl
		t.cl = nil
		t.mu.Unlock()
		// A waiter that registers after its list was taken sees done.
		for _, w := range cl {
			l.release(w)
		}
	}
}

// ContentionNs implements Manager.
func (l *Local) ContentionNs(tid int) int64 { return l.ov.get(tid) }
