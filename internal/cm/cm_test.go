package cm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCoordinatorLastActiveNeverDeactivates(t *testing.T) {
	c := NewCoordinator(3)
	if !c.TryDeactivate() {
		t.Fatal("first deactivation refused")
	}
	if !c.TryDeactivate() {
		t.Fatal("second deactivation refused")
	}
	if c.TryDeactivate() {
		t.Fatal("last active thread was allowed to deactivate")
	}
	c.Reactivate()
	if !c.TryDeactivate() {
		t.Fatal("deactivation refused after reactivate")
	}
	if c.Inactive() != 2 {
		t.Fatalf("Inactive = %d, want 2", c.Inactive())
	}
}

func TestCoordinatorConcurrent(t *testing.T) {
	const n = 8
	c := NewCoordinator(n)
	var wg sync.WaitGroup
	var everAll atomic.Bool
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				if c.TryDeactivate() {
					if c.Inactive() >= n {
						everAll.Store(true)
					}
					c.Reactivate()
				}
			}
		}()
	}
	wg.Wait()
	if everAll.Load() {
		t.Error("all threads were inactive simultaneously")
	}
	if c.Inactive() != 0 {
		t.Errorf("Inactive = %d at the end", c.Inactive())
	}
}

func TestAggressiveIsNoOp(t *testing.T) {
	m := NewAggressive()
	m.OnRollback(0, 1)
	m.OnSuccess(0)
	if m.WakeOne() {
		t.Error("Aggressive woke someone")
	}
	if m.ContentionNs(0) != 0 {
		t.Error("Aggressive accumulated contention time")
	}
	if m.Name() != "Aggressive-CM" {
		t.Error("name")
	}
}

func TestRandomSleepsAfterLimit(t *testing.T) {
	m := NewRandom(2, 100*time.Microsecond)
	// r+ rollbacks: no sleep yet.
	for i := 0; i < RandomRollbackLimit; i++ {
		m.OnRollback(0, 1)
	}
	if m.ContentionNs(0) != 0 {
		t.Fatal("slept before exceeding the limit")
	}
	m.OnRollback(0, 1) // exceeds
	if m.ContentionNs(0) == 0 {
		t.Fatal("did not sleep after exceeding the limit")
	}
}

func TestRandomSuccessResetsCounter(t *testing.T) {
	m := NewRandom(1, 50*time.Microsecond)
	for i := 0; i < RandomRollbackLimit; i++ {
		m.OnRollback(0, -1)
	}
	m.OnSuccess(0)
	m.OnRollback(0, -1) // only 1 consecutive now
	if m.ContentionNs(0) != 0 {
		t.Fatal("slept although the streak was broken by a success")
	}
}

func TestGlobalBlocksAndWakes(t *testing.T) {
	coord := NewCoordinator(2)
	m := NewGlobal(2, coord)

	var phase atomic.Int32
	done := make(chan struct{})
	go func() {
		phase.Store(1)
		m.OnRollback(0, 1) // should block
		phase.Store(2)
		close(done)
	}()

	// Wait until it is blocked.
	deadline := time.After(2 * time.Second)
	for coord.Inactive() == 0 {
		select {
		case <-deadline:
			t.Fatal("thread never blocked")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if phase.Load() != 1 {
		t.Fatal("unexpected phase")
	}

	// Successes from thread 1 eventually wake it.
	for i := 0; i <= SuccessLimit+1; i++ {
		m.OnSuccess(1)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked thread was never woken by progress")
	}
	if m.ContentionNs(0) == 0 {
		t.Error("no contention time recorded")
	}
}

func TestGlobalLastActiveDoesNotBlock(t *testing.T) {
	coord := NewCoordinator(2)
	m := NewGlobal(2, coord)
	if !coord.TryDeactivate() {
		t.Fatal("setup")
	}
	// Thread 0 is now the only active one: OnRollback must return
	// immediately instead of blocking.
	doneCh := make(chan struct{})
	go func() {
		m.OnRollback(0, 1)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("last active thread blocked")
	}
}

func TestGlobalQuiesceReleasesAll(t *testing.T) {
	coord := NewCoordinator(4)
	m := NewGlobal(4, coord)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			m.OnRollback(tid, 3)
		}(i)
	}
	for coord.Inactive() < 3 {
		time.Sleep(time.Millisecond)
	}
	m.Quiesce()
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce did not release blocked threads")
	}
}

func TestLocalBlocksOnConflictingThread(t *testing.T) {
	coord := NewCoordinator(2)
	m := NewLocal(2, coord)
	done := make(chan struct{})
	go func() {
		m.OnRollback(0, 1)
		close(done)
	}()
	for coord.Inactive() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Progress by thread 1 wakes thread 0 from CL_1.
	for i := 0; i <= SuccessLimit+1; i++ {
		m.OnSuccess(1)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter on CL_1 never woken")
	}
}

func TestLocalCycleDoesNotDeadlock(t *testing.T) {
	// Two threads conflicting with each other: per Figure 2, at least
	// one must decline to block, and the other is woken by its
	// progress or by WakeOne. We emulate the refiner loop: each thread
	// alternates rollback/success.
	coord := NewCoordinator(2)
	m := NewLocal(2, coord)
	var wg sync.WaitGroup
	stop := atomic.Bool{}
	var remaining atomic.Int32
	remaining.Store(2)
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			other := 1 - tid
			for i := 0; i < 200 && !stop.Load(); i++ {
				m.OnRollback(tid, other)
				m.OnSuccess(tid)
				for s := 0; s < SuccessLimit+2; s++ {
					m.OnSuccess(tid)
				}
			}
			// The refiner's idle path: finished threads keep waking
			// waiters (Section 5.3's begging-list interplay).
			remaining.Add(-1)
			for remaining.Load() > 0 {
				m.WakeOne()
				time.Sleep(50 * time.Microsecond)
			}
		}(tid)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		stop.Store(true)
		m.Quiesce()
		t.Fatal("two-thread conflict cycle deadlocked")
	}
}

func TestLocalSelfOrUnknownConflictIgnored(t *testing.T) {
	coord := NewCoordinator(2)
	m := NewLocal(2, coord)
	m.OnRollback(0, -1) // unknown owner: must not block
	m.OnRollback(0, 0)  // self: must not block
	if coord.Inactive() != 0 {
		t.Fatal("thread deactivated on a no-dependency rollback")
	}
}

func TestLocalWakeOneScansAllLists(t *testing.T) {
	coord := NewCoordinator(3)
	m := NewLocal(3, coord)
	done := make(chan struct{})
	go func() {
		m.OnRollback(2, 1) // waits on CL_1
		close(done)
	}()
	for coord.Inactive() == 0 {
		time.Sleep(time.Millisecond)
	}
	if !m.WakeOne() {
		t.Fatal("WakeOne found no waiter")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WakeOne did not release the waiter")
	}
	if m.WakeOne() {
		t.Error("WakeOne woke a phantom waiter")
	}
}

func TestManagersStress(t *testing.T) {
	// All four managers under randomized rollback/success traffic from
	// many goroutines must neither deadlock nor corrupt counters.
	const n = 6
	coord := NewCoordinator(n)
	mgrs := []Manager{
		NewAggressive(),
		NewRandom(n, time.Microsecond),
		NewGlobal(n, coord),
		NewLocal(n, NewCoordinator(n)),
	}
	for _, m := range mgrs {
		t.Run(m.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			var remaining atomic.Int32
			remaining.Store(n)
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						if i%3 == 0 {
							m.OnRollback(tid, (tid+1)%n)
						} else {
							m.OnSuccess(tid)
						}
					}
					// Like the refiner's idle path: a finished thread
					// keeps waking waiters so no one starves.
					remaining.Add(-1)
					for remaining.Load() > 0 {
						m.WakeOne()
						time.Sleep(100 * time.Microsecond)
					}
				}(tid)
			}
			fin := make(chan struct{})
			go func() { wg.Wait(); close(fin) }()
			select {
			case <-fin:
			case <-time.After(15 * time.Second):
				m.Quiesce()
				t.Fatal("stress deadlocked")
			}
			m.Quiesce()
		})
	}
}

// TestLocalBlockingDoesNotWakeOwnList reproduces the paper's Figure 4
// hazard: a thread about to busy-wait on another's contention list
// must NOT wake the threads parked on its own list — doing so enables
// an infinite hand-off cycle. We park T0 on CL_1, then make T1 block
// on T2: T0 must remain parked.
func TestLocalBlockingDoesNotWakeOwnList(t *testing.T) {
	coord := NewCoordinator(3)
	m := NewLocal(3, coord)

	t0parked := make(chan struct{})
	go func() {
		m.OnRollback(0, 1) // T0 parks on CL_1
		close(t0parked)
	}()
	for coord.Inactive() == 0 {
		time.Sleep(time.Millisecond)
	}

	// T1 now blocks on T2's list; per Figure 4 it must not wake T0.
	t1done := make(chan struct{})
	go func() {
		m.OnRollback(1, 2)
		close(t1done)
	}()
	for coord.Inactive() < 2 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-t0parked:
		t.Fatal("blocking thread woke its own contention list (Figure 4 livelock enabled)")
	case <-time.After(50 * time.Millisecond):
		// T0 still parked: correct.
	}
	m.Quiesce()
	<-t0parked
	<-t1done
}

// TestContentionTimeMonotone checks per-thread overhead accounting.
func TestContentionTimeMonotone(t *testing.T) {
	coord := NewCoordinator(2)
	m := NewGlobal(2, coord)
	done := make(chan struct{})
	go func() {
		m.OnRollback(0, 1)
		close(done)
	}()
	for coord.Inactive() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	m.WakeOne()
	<-done
	if m.ContentionNs(0) < int64(2*time.Millisecond) {
		t.Errorf("contention time %d below blocked duration", m.ContentionNs(0))
	}
	if m.ContentionNs(1) != 0 {
		t.Errorf("idle thread accumulated contention time")
	}
}

// TestReleaseRacesRegistration blocks and releases a waiter 20k times,
// with the releaser retrying from the moment the previous cycle ends so
// that its release lands while the waiter is still registering or just
// about to park. A lost wake-up leaves the waiter parked and the
// releaser with nobody to pop, which the 10 s deadline reports. Fresh
// managers then race Quiesce against registration the same way.
func TestReleaseRacesRegistration(t *testing.T) {
	const cycles = 20000
	for _, mk := range []func() Manager{
		func() Manager { return NewGlobal(2, NewCoordinator(2)) },
		func() Manager { return NewLocal(2, NewCoordinator(2)) },
	} {
		m := mk()
		t.Run(m.Name(), func(t *testing.T) {
			deadline := time.After(10 * time.Second)
			waiterDone := make(chan struct{})
			go func() {
				defer close(waiterDone)
				for i := 0; i < cycles; i++ {
					m.OnRollback(0, 1)
				}
			}()
			for i := 0; i < cycles; i++ {
				for !m.WakeOne() {
					select {
					case <-deadline:
						m.Quiesce()
						t.Fatalf("cycle %d: wake-up lost", i)
					default:
						runtime.Gosched()
					}
				}
			}
			select {
			case <-waiterDone:
			case <-deadline:
				m.Quiesce()
				t.Fatal("the last release was lost")
			}

			for i := 0; i < cycles/10; i++ {
				q := mk()
				done := make(chan struct{})
				go func() { q.OnRollback(0, 1); close(done) }()
				q.Quiesce()
				select {
				case <-done:
				case <-deadline:
					t.Fatalf("quiesce %d: the waiter never returned", i)
				}
			}
		})
	}
}
