// Package faultinject is a deterministic fault-injection harness for
// the refinement engine. Production code is instrumented with named
// injection points (a denied CAS lock, a delayed commit, a worker
// panic, a dropped work-steal, a stalled session); when no injector is
// installed every hook reduces to a single atomic nil-check, so the
// instrumentation is free in normal operation.
//
// Determinism. Each point keeps its own check counter, and the verdict
// of the N-th check of a point is a pure function of (seed, point, N):
// a splitmix64 hash compared against the point's rate threshold.
// Re-running with the same seed therefore denies/fires the same
// positions in each point's check sequence. (The interleaving of checks
// across goroutines still varies run to run — full replay determinism
// is impossible under preemptive scheduling — but the *pattern* of
// faults is reproducible, which is what the soak tests need.)
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Point names one injection site compiled into the engine.
type Point int

const (
	// LockDeny makes Worker.tryLock fail as if another worker held the
	// vertex lock (a synthetic CAS denial → rollback storm).
	LockDeny Point = iota
	// CommitDelay stalls a committing insertion while it holds its
	// cavity locks, inflating the contention window.
	CommitDelay
	// WorkerPanic panics inside an in-flight operation at the
	// pre-commit site (locks held, mesh untouched), exercising the
	// refiner's panic abort.
	WorkerPanic
	// DropSteal makes the load balancer's ClaimBeggar come back empty,
	// as if the begging list were lost; donors keep the work local.
	DropSteal
	// _ is a retired point's slot; see the two below RunPoisoned.
	_
	// QueueFull makes the serving layer's admission check report a
	// full job queue, forcing a synthetic 429 rejection.
	QueueFull
	// SlowSession stalls a checked-out pool session just before its
	// run, inflating queue wait for everyone behind it.
	SlowSession
	// RunPoisoned fails a serving-layer run outright before it starts,
	// simulating an input that reliably crashes the engine — the
	// trigger for session replacement.
	RunPoisoned
	// Each _ keeps the slot of a retired point, so the points after it
	// keep their numbers — and every seed its firing pattern (fire
	// hashes p).
	_
	_
	// CacheWriteFail fails a cachestore blob write with an I/O error
	// (EIO-like), exercising the store's degradation to memory-only
	// mode.
	CacheWriteFail
	// CacheTornWrite truncates a cachestore blob mid-write before the
	// rename, simulating a crash that left a torn-but-visible blob; the
	// CRC trailer must catch it on the next read or fsck.
	CacheTornWrite
	// CacheBitFlip corrupts one byte of a cachestore blob after its CRC
	// was computed, simulating silent media corruption; reads must
	// detect and quarantine it, never serve it.
	CacheBitFlip
	// CacheENOSPC fails a cachestore blob write with ENOSPC,
	// exercising the disk-full degradation ladder.
	CacheENOSPC
	// ProxyDialFail fails a router→backend proxied request at the
	// transport, as if the network partitioned that backend away
	// mid-traffic; the router must fall back to the next ring replica.
	ProxyDialFail
	// ProbeFail drops a router health probe (the probe observes a dead
	// network even though the backend may be fine), driving the
	// fail-open ejection and rejoin machinery.
	ProbeFail
	// BrownoutStuck pins the serving layer's brownout controller at
	// maximal pressure, as if its load signals were wedged high — the
	// controller degrades every request to the deepest ladder tier until
	// the storm subsides and hysteresis walks quality back up.
	BrownoutStuck

	// NumPoints is the number of injection points.
	NumPoints int = iota
)

// String returns the point's name.
func (p Point) String() string {
	switch p {
	case LockDeny:
		return "lock-deny"
	case CommitDelay:
		return "commit-delay"
	case WorkerPanic:
		return "worker-panic"
	case DropSteal:
		return "drop-steal"
	case QueueFull:
		return "queue-full"
	case SlowSession:
		return "slow-session"
	case RunPoisoned:
		return "run-poisoned"
	case CacheWriteFail:
		return "cache-write-fail"
	case CacheTornWrite:
		return "cache-torn-write"
	case CacheBitFlip:
		return "cache-bit-flip"
	case CacheENOSPC:
		return "cache-enospc"
	case ProxyDialFail:
		return "proxy-dial-fail"
	case ProbeFail:
		return "probe-fail"
	case BrownoutStuck:
		return "brownout-stuck"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// InjectedPanic is the value thrown by a WorkerPanic firing, so that
// recovery sites can distinguish harness panics from genuine bugs.
type InjectedPanic struct {
	Point Point
	N     int64 // which check in the point's sequence fired
}

func (e InjectedPanic) Error() string {
	return fmt.Sprintf("faultinject: injected %v (check %d)", e.Point, e.N)
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives the per-point fault pattern.
	Seed int64
	// Rates[p] is the probability in [0,1] that a check of point p
	// fires. Points absent from the map never fire.
	Rates map[Point]float64
	// MaxFires[p] optionally caps the number of firings of point p
	// (0 = unlimited); a bounded "storm" that subsides on its own.
	MaxFires map[Point]int64
	// After[p] suppresses the first N checks of point p — a
	// deterministic warm-up, so a storm can start mid-run after the
	// bootstrap and early refinement have gone through cleanly.
	After map[Point]int64
	// Delay is the stall applied by CommitDelay and SlowSession firings
	// (default 1ms).
	Delay time.Duration
}

type pointState struct {
	threshold uint64 // hash < threshold → fire; 0 = never
	maxFires  int64  // 0 = unlimited
	after     int64  // first `after` checks never fire
	checks    atomic.Int64
	fires     atomic.Int64
	disarmed  atomic.Bool
}

// Injector evaluates injection points against a seeded fault pattern.
type Injector struct {
	seed  int64
	delay time.Duration
	pts   [NumPoints]pointState
}

// New builds an injector from cfg. It is inert until installed with
// Enable.
func New(cfg Config) *Injector {
	in := &Injector{seed: cfg.Seed, delay: cfg.Delay}
	if in.delay <= 0 {
		in.delay = time.Millisecond
	}
	for p, rate := range cfg.Rates {
		if int(p) < 0 || int(p) >= NumPoints {
			continue
		}
		switch {
		case rate >= 1:
			in.pts[p].threshold = ^uint64(0)
		case rate > 0:
			in.pts[p].threshold = uint64(rate * float64(1<<63) * 2)
		}
	}
	for p, m := range cfg.MaxFires {
		if int(p) >= 0 && int(p) < NumPoints {
			in.pts[p].maxFires = m
		}
	}
	for p, a := range cfg.After {
		if int(p) >= 0 && int(p) < NumPoints {
			in.pts[p].after = a
		}
	}
	return in
}

// splitmix64 is the finalizer of the SplitMix64 generator: a strong
// 64-bit mixing function, used here as hash(seed, point, check index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fire evaluates one check of point p.
func (in *Injector) fire(p Point) bool {
	s := &in.pts[p]
	if s.threshold == 0 || s.disarmed.Load() {
		return false
	}
	n := s.checks.Add(1)
	if n <= s.after {
		return false
	}
	if s.threshold != ^uint64(0) {
		h := splitmix64(uint64(in.seed) ^ uint64(p)<<56 ^ uint64(n))
		if h >= s.threshold {
			return false
		}
	}
	f := s.fires.Add(1)
	if s.maxFires > 0 && f > s.maxFires {
		s.fires.Add(-1)
		return false
	}
	return true
}

// Fired reports how many times point p has fired.
func (in *Injector) Fired(p Point) int64 { return in.pts[p].fires.Load() }

// Checked reports how many times point p has been evaluated.
func (in *Injector) Checked(p Point) int64 { return in.pts[p].checks.Load() }

// Disarm permanently silences point p on this injector (used by tests
// to end a storm once the behavior under it has been observed).
func (in *Injector) Disarm(p Point) { in.pts[p].disarmed.Store(true) }

// active is the globally installed injector; nil when injection is
// disabled, which is the fast path every hook takes in production.
var active atomic.Pointer[Injector]

// Enable installs in as the process-wide injector and returns a
// function restoring the previous state (for tests).
func Enable(in *Injector) (restore func()) {
	prev := active.Swap(in)
	return func() { active.Store(prev) }
}

// Disable removes any installed injector.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Fire evaluates one check of point p against the installed injector;
// with none installed it is a nil-check and returns false.
func Fire(p Point) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	return in.fire(p)
}

// Check panics with an InjectedPanic if point p fires.
func Check(p Point) {
	in := active.Load()
	if in == nil {
		return
	}
	if in.fire(p) {
		panic(InjectedPanic{Point: p, N: in.pts[p].checks.Load()})
	}
}

// Sleep stalls for the injector's configured delay if point p fires.
func Sleep(p Point) {
	in := active.Load()
	if in == nil {
		return
	}
	if in.fire(p) {
		time.Sleep(in.delay)
	}
}
