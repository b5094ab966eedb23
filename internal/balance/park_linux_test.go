package balance

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

// TestIdleThreadsPark puts three threads on each begging list and
// requires that, together, they burn less than a tenth of one core
// while they wait, and that Quiesce releases them all.
func TestIdleThreadsPark(t *testing.T) {
	for _, b := range []Balancer{NewRWS(4, ForWorkers(4)), NewHWS(4, ForWorkers(4))} {
		t.Run(b.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			registerInOrder(t, b, &wg, 0, 1, 2)

			const window = 200 * time.Millisecond
			before := cpuTime(t)
			time.Sleep(window)
			if used := cpuTime(t) - before; used > window/10 {
				t.Errorf("three idle threads used %v of CPU in %v", used, window)
			}

			b.Quiesce()
			released := make(chan struct{})
			go func() { wg.Wait(); close(released) }()
			select {
			case <-released:
			case <-time.After(time.Second):
				t.Fatal("Quiesce did not release the idle threads within 1s")
			}
		})
	}
}
