package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/img"
)

// TestSessionConcurrentRunBusy is the contract the serve pool relies
// on: concurrent Run calls on one Session never queue — exactly the
// overlapping ones fail fast with ErrSessionBusy, the session stays
// usable, and the rejections are counted. Run under -race in CI.
func TestSessionConcurrentRunBusy(t *testing.T) {
	im := img.SpherePhantom(16)
	s, err := NewSession(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const callers = 8
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		busy      atomic.Int64
	)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := s.Run(context.Background(), im)
			switch {
			case errors.Is(err, ErrSessionBusy):
				if res != nil {
					t.Error("ErrSessionBusy came with a non-nil Result")
				}
				busy.Add(1)
			case err != nil:
				t.Errorf("Run: %v", err)
			default:
				if res.Elements() == 0 {
					t.Error("successful Run produced an empty mesh")
				}
				completed.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	if completed.Load() == 0 {
		t.Fatal("no Run completed")
	}
	if completed.Load()+busy.Load() != callers {
		t.Fatalf("runs %d + busy %d != callers %d", completed.Load(), busy.Load(), callers)
	}
	st := s.Stats()
	if st.BusyRejects != busy.Load() {
		t.Errorf("Stats().BusyRejects = %d, observed %d rejections", st.BusyRejects, busy.Load())
	}
	if int64(st.Runs) != completed.Load() {
		t.Errorf("Stats().Runs = %d, observed %d completions", st.Runs, completed.Load())
	}

	// The session must still be fully usable after rejections.
	res, err := s.Run(context.Background(), im)
	if err != nil || res.Status != StatusCompleted {
		t.Fatalf("Run after busy rejections: %v, %v", res.Status, err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("post-rejection Run: %v", err)
	}
}
