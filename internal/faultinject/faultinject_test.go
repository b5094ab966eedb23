package faultinject

import (
	"testing"
	"time"
)

func TestDisabledHooksAreInert(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("no injector installed, Enabled() = true")
	}
	if Fire(LockDeny) {
		t.Fatal("Fire fired with no injector")
	}
	Check(WorkerPanic) // must not panic
	Sleep(CommitDelay) // must not sleep
}

func TestDeterministicPattern(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(Config{Seed: seed, Rates: map[Point]float64{LockDeny: 0.3}})
		out := make([]bool, 1000)
		for i := range out {
			out[i] = in.fire(LockDeny)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("check %d differs between identical seeds", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires < 200 || fires > 400 {
		t.Errorf("rate 0.3 produced %d/1000 fires", fires)
	}
	c := pattern(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical patterns")
	}
}

func TestRateOneAndMaxFires(t *testing.T) {
	in := New(Config{Seed: 1, Rates: map[Point]float64{DropSteal: 1}, MaxFires: map[Point]int64{DropSteal: 5}})
	fires := 0
	for i := 0; i < 100; i++ {
		if in.fire(DropSteal) {
			fires++
		}
	}
	if fires != 5 {
		t.Fatalf("MaxFires=5 but %d fires", fires)
	}
	if got := in.Fired(DropSteal); got != 5 {
		t.Fatalf("Fired() = %d, want 5", got)
	}
	if got := in.Checked(DropSteal); got != 100 {
		t.Fatalf("Checked() = %d, want 100", got)
	}
}

func TestDisarm(t *testing.T) {
	in := New(Config{Seed: 1, Rates: map[Point]float64{LockDeny: 1}})
	if !in.fire(LockDeny) {
		t.Fatal("rate-1 point did not fire")
	}
	in.Disarm(LockDeny)
	if in.fire(LockDeny) {
		t.Fatal("disarmed point fired")
	}
}

func TestEnableRestoreAndPanicValue(t *testing.T) {
	in := New(Config{Seed: 7, Rates: map[Point]float64{WorkerPanic: 1}, Delay: time.Microsecond})
	restore := Enable(in)
	defer restore()

	defer func() {
		p := recover()
		ip, ok := p.(InjectedPanic)
		if !ok {
			t.Fatalf("recovered %T, want InjectedPanic", p)
		}
		if ip.Point != WorkerPanic {
			t.Fatalf("panic point %v", ip.Point)
		}
		if ip.Error() == "" {
			t.Fatal("empty error string")
		}
		restore()
		if Enabled() {
			t.Fatal("restore did not uninstall")
		}
	}()
	Check(WorkerPanic)
	t.Fatal("Check did not panic")
}

func TestAfterSuppressesWarmup(t *testing.T) {
	in := New(Config{
		Seed:  1,
		Rates: map[Point]float64{LockDeny: 1},
		After: map[Point]int64{LockDeny: 10},
	})
	for i := 0; i < 10; i++ {
		if in.fire(LockDeny) {
			t.Fatalf("fired during warm-up (check %d)", i+1)
		}
	}
	if !in.fire(LockDeny) {
		t.Fatal("rate-1 point did not fire after the warm-up")
	}
	if got := in.Fired(LockDeny); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
	if got := in.Checked(LockDeny); got != 11 {
		t.Fatalf("Checked = %d, want 11 (warm-up checks still count)", got)
	}
}

// TestPointNumbersPinned: a point's number seeds its firing pattern
// (fire hashes p), so a deletion that renumbers the points after it
// silently changes every chaos seed's faults. Retired points keep their
// slots as _; these are the numbers and names every seed was tuned on.
func TestPointNumbersPinned(t *testing.T) {
	pinned := []struct {
		p    Point
		n    int
		name string
	}{
		{LockDeny, 0, "lock-deny"},
		{CommitDelay, 1, "commit-delay"},
		{WorkerPanic, 2, "worker-panic"},
		{DropSteal, 3, "drop-steal"},
		{QueueFull, 5, "queue-full"},
		{SlowSession, 6, "slow-session"},
		{RunPoisoned, 7, "run-poisoned"},
		{CacheWriteFail, 10, "cache-write-fail"},
		{CacheTornWrite, 11, "cache-torn-write"},
		{CacheBitFlip, 12, "cache-bit-flip"},
		{ProxyDialFail, 14, "proxy-dial-fail"},
		{ProbeFail, 15, "probe-fail"},
		{BrownoutStuck, 16, "brownout-stuck"},
	}
	for _, pin := range pinned {
		if int(pin.p) != pin.n || pin.p.String() != pin.name {
			t.Errorf("point %d %q, want %d %q", int(pin.p), pin.p.String(), pin.n, pin.name)
		}
	}
	if NumPoints != 17 {
		t.Errorf("NumPoints = %d, want 17", NumPoints)
	}
}
