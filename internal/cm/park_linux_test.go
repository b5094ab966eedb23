package cm

import (
	"sync"
	"syscall"
	"testing"
	"time"
)

// cpuTime is the CPU time, user plus system, this process has used.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestBlockedThreadsPark puts three threads to wait in each blocking
// manager and requires that, together, they burn less than a tenth of
// one core while they wait, and that Quiesce releases them all.
func TestBlockedThreadsPark(t *testing.T) {
	const n = 4 // three waiters, all blocked on thread 3
	for _, mk := range []func(*Coordinator) Manager{
		func(c *Coordinator) Manager { return NewGlobal(n, c) },
		func(c *Coordinator) Manager { return NewLocal(n, c) },
	} {
		coord := NewCoordinator(n)
		m := mk(coord)
		t.Run(m.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			for tid := 0; tid < n-1; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					m.OnRollback(tid, n-1)
				}(tid)
			}
			deadline := time.After(2 * time.Second)
			for coord.Inactive() < n-1 {
				select {
				case <-deadline:
					m.Quiesce()
					t.Fatalf("%d of %d waiters blocked", coord.Inactive(), n-1)
				default:
					time.Sleep(time.Millisecond)
				}
			}

			const window = 200 * time.Millisecond
			before := cpuTime(t)
			time.Sleep(window)
			if used := cpuTime(t) - before; used > window/10 {
				t.Errorf("three blocked threads used %v of CPU in %v", used, window)
			}

			m.Quiesce()
			released := make(chan struct{})
			go func() { wg.Wait(); close(released) }()
			select {
			case <-released:
			case <-time.After(time.Second):
				t.Fatal("Quiesce did not release the blocked threads within 1s")
			}
		})
	}
}
