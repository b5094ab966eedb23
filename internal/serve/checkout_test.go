package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCheckoutServesWaitersInArrivalOrder pins the admission order:
// with the pool exhausted, a freed session goes to the oldest waiter,
// whatever the deadlines. Every lease lasts one mesh run (a simulate
// solve runs off-lease), so a far-deadline waiter holds no one up for
// long, and a later near-deadline one must not overtake it.
func TestCheckoutServesWaitersInArrivalOrder(t *testing.T) {
	p, err := NewPool(1, 16, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	hold, err := p.Checkout(context.Background())
	if err != nil || hold == nil {
		t.Fatalf("priming checkout: lease=%v err=%v", hold, err)
	}

	// The one-hour waiter arrives first, the one-minute waiter second.
	hourCtx, cancelHour := context.WithTimeout(context.Background(), time.Hour)
	defer cancelHour()
	minuteCtx, cancelMinute := context.WithTimeout(context.Background(), time.Minute)
	defer cancelMinute()

	type got struct {
		who   string
		lease *Lease
		err   error
	}
	order := make(chan got, 2)
	var wg sync.WaitGroup
	checkout := func(who string, ctx context.Context) {
		defer wg.Done()
		l, err := p.Checkout(ctx)
		order <- got{who, l, err}
	}
	wg.Add(1)
	go checkout("hour", hourCtx)
	waitWaiters(t, p, 1)
	wg.Add(1)
	go checkout("minute", minuteCtx)
	waitWaiters(t, p, 2)

	hold.Release()
	for _, want := range []string{"hour", "minute"} {
		g := <-order
		if g.err != nil {
			t.Fatalf("grant to %q failed: %v", g.who, g.err)
		}
		if g.who != want {
			t.Fatalf("session granted to %q, want %q (arrival order)", g.who, want)
		}
		g.lease.Release()
	}
	wg.Wait()
}

// TestCheckoutCanceledWaiterReleasesGrant exercises the grant/cancel
// race: a waiter whose context dies must hand any in-flight grant to
// the next waiter instead of leaking the session.
func TestCheckoutCanceledWaiterReleasesGrant(t *testing.T) {
	p, err := NewPool(1, 16, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	hold, err := p.Checkout(context.Background())
	if err != nil || hold == nil {
		t.Fatalf("priming checkout: lease=%v err=%v", hold, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Checkout(ctx)
		errc <- err
	}()
	waitWaiters(t, p, 1)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled checkout returned a lease")
	}
	hold.Release()
	// The session must still be checkoutable (not leaked to the dead
	// waiter, not double-busy).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	l, err := p.Checkout(ctx2)
	if err != nil {
		t.Fatalf("post-cancel checkout: %v", err)
	}
	l.Release()
}

func waitWaiters(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d waiters (have %d)", n, p.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
}
