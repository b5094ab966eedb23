package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCheckoutEDFOrdering pins the earliest-deadline-first admission
// contract: with the pool exhausted, a later-arriving near-deadline
// job overtakes an earlier long-deadline waiter (the /v1/simulate
// long-solve vs interactive-mesh mix), instead of the old
// FIFO-by-wakeup behavior handing the session to whichever goroutine
// the scheduler woke first.
func TestCheckoutEDFOrdering(t *testing.T) {
	p, err := NewPool(1, 16, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	hold, err := p.Checkout(context.Background(), "")
	if err != nil || hold == nil {
		t.Fatalf("priming checkout: lease=%v err=%v", hold, err)
	}

	// The long solve arrives FIRST with a far deadline; the interactive
	// mesh job arrives second with a near one.
	longCtx, cancelLong := context.WithTimeout(context.Background(), time.Hour)
	defer cancelLong()
	nearCtx, cancelNear := context.WithTimeout(context.Background(), time.Minute)
	defer cancelNear()

	type got struct {
		who   string
		lease *Lease
		err   error
	}
	order := make(chan got, 2)
	var wg sync.WaitGroup
	checkout := func(who string, ctx context.Context) {
		defer wg.Done()
		l, err := p.Checkout(ctx, "")
		order <- got{who, l, err}
	}
	wg.Add(1)
	go checkout("long-solve", longCtx)
	waitWaiters(t, p, 1)
	wg.Add(1)
	go checkout("near-mesh", nearCtx)
	waitWaiters(t, p, 2)

	hold.Release()
	first := <-order
	if first.err != nil {
		t.Fatalf("first grant failed: %v", first.err)
	}
	if first.who != "near-mesh" {
		t.Fatalf("session granted to %q first, want the near-deadline job", first.who)
	}
	first.lease.Release()
	second := <-order
	if second.err != nil {
		t.Fatalf("second grant failed: %v", second.err)
	}
	if second.who != "long-solve" {
		t.Fatalf("second grant went to %q, want long-solve", second.who)
	}
	second.lease.Release()
	wg.Wait()
}

// TestCheckoutEDFDeadlineBeatsNone pins the tie-break: a waiter with
// any deadline outranks one with none, and equal-deadline waiters are
// served FIFO.
func TestCheckoutEDFDeadlineBeatsNone(t *testing.T) {
	p, err := NewPool(1, 16, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	hold, err := p.Checkout(context.Background(), "")
	if err != nil || hold == nil {
		t.Fatalf("priming checkout: lease=%v err=%v", hold, err)
	}

	dlCtx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		l, err := p.Checkout(context.Background(), "") // no deadline, arrives first
		if err != nil {
			t.Errorf("no-deadline checkout: %v", err)
			return
		}
		order <- "none"
		l.Release()
	}()
	waitWaiters(t, p, 1)
	go func() {
		defer wg.Done()
		l, err := p.Checkout(dlCtx, "")
		if err != nil {
			t.Errorf("deadline checkout: %v", err)
			return
		}
		order <- "deadline"
		l.Release()
	}()
	waitWaiters(t, p, 2)

	hold.Release()
	if first := <-order; first != "deadline" {
		t.Fatalf("first grant went to %q, want the deadline-bearing waiter", first)
	}
	<-order
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

	hold, err := p.Checkout(context.Background(), "")
	if err != nil || hold == nil {
		t.Fatalf("priming checkout: lease=%v err=%v", hold, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Checkout(ctx, "")
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
	l, err := p.Checkout(ctx2, "")
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
