package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// overloadTally is what one overload phase observed from the client
// side: attempts, browned 200s (X-Pi2md-Brownout present), rejections
// (429 queue-full / 503 deadline-or-overloaded), and anything else —
// which is always a failure.
type overloadTally struct {
	total    atomic.Int64
	ok       atomic.Int64
	browned  atomic.Int64
	rejected atomic.Int64
	other    atomic.Int64
}

func (o *overloadTally) rate() float64 {
	t := o.total.Load()
	if t == 0 {
		return 0
	}
	return float64(o.rejected.Load()) / float64(t)
}

// runOverloadPhase boots a one-session server (with or without the
// brownout controller), warms its lease histogram with two full-quality
// runs, then drives it with a closed-loop worker storm at roughly 2x
// queue capacity for the given duration. Every worker posts a distinct
// quality variant (max_elements=10000+w) so nothing coalesces and every
// admitted request is a real meshing run.
func runOverloadPhase(t *testing.T, brownout bool, seed int64, storm time.Duration) (*Server, *httptest.Server, *overloadTally) {
	t.Helper()
	srv, ts := newTestServer(t, Config{
		PoolSize:       1,
		QueueDepth:     4,
		DefaultTimeout: 30 * time.Second,
		Brownout:       brownout,
	})
	if brownout {
		srv.brownout.hold = 200 * time.Millisecond
		srv.brownout.ladder = []brownoutTier{
			{MaxRadiusEdge: 3, MinFacetAngle: 15, DeltaScale: 4},
			{MaxRadiusEdge: 4, MinFacetAngle: 10, DeltaScale: 8, MaxElements: 100000},
		}
	}
	body := nrrdBody(t, 16)
	client := &http.Client{Timeout: time.Minute}

	// Warm-up: two sequential full-quality runs at the storm's own δ
	// populate the lease histogram, so the controller's p90 evidence
	// reflects what a tier-0 run actually costs on this machine (under
	// -race that is seconds, not the bare-metal couple hundred ms).
	// The element cap must not bind — a binding cap truncates
	// refinement early and teaches the controller a lease time far
	// below the storm's real cost.
	for i := 0; i < 2; i++ {
		code, out := post(t, client, ts.URL+"/v1/mesh?delta=0.5&max_elements=20000&timeout=60s", body)
		if code != http.StatusOK {
			t.Fatalf("warmup run %d: status %d: %s", i, code, out)
		}
	}

	// Storm: 7 closed-loop workers against 1 running + 4 queued slots.
	// delta=0.5 makes a full-quality run take ~85ms on this phantom
	// (seconds under -race), so the queue saturates immediately;
	// the ladder tiers (ds=4, ds=8) run the same image 15-80x cheaper.
	const workers = 7
	tally := &overloadTally{}
	deadline := time.Now().Add(storm)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			url := fmt.Sprintf("%s/v1/mesh?delta=0.5&max_elements=%d&timeout=8s", ts.URL, 10000+w)
			for time.Now().Before(deadline) {
				resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				tally.total.Add(1)
				switch {
				case resp.StatusCode == http.StatusOK:
					tally.ok.Add(1)
					if resp.Header.Get(BrownoutHeader) != "" {
						tally.browned.Add(1)
					}
				case resp.StatusCode == http.StatusTooManyRequests,
					resp.StatusCode == http.StatusServiceUnavailable:
					tally.rejected.Add(1)
				default:
					tally.other.Add(1)
					t.Errorf("unexpected status %d under overload", resp.StatusCode)
				}
				// A sliver of think time keeps rejected workers from
				// busy-spinning the queue at pure HTTP overhead speed.
				time.Sleep(time.Duration(2+rng.Intn(5)) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	return srv, ts, tally
}

// TestOverloadBrownout is the overload chaos phase: the same 2x-capacity
// closed-loop storm is thrown at a controller-disabled control server
// and a brownout-enabled one, and the brownout run must convert
// rejections into degraded 200s — a strictly lower rejection rate, at
// least one browned response, zero unexpected statuses — and then walk
// back to full quality once the storm passes.
func TestOverloadBrownout(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak skipped in -short mode")
	}
	seed := chaosSeed(t)
	// Under -race a tier-0 run costs seconds instead of hundreds of
	// ms; a longer storm keeps one expensive full-quality leader from
	// dominating the whole comparison window.
	storm := 2500 * time.Millisecond
	if raceDetector {
		storm = 6 * time.Second
	}

	_, _, control := runOverloadPhase(t, false, seed, storm)
	srv, ts, browned := runOverloadPhase(t, true, seed, storm)

	t.Logf("control: total=%d ok=%d rejected=%d (rate %.3f)",
		control.total.Load(), control.ok.Load(), control.rejected.Load(), control.rate())
	t.Logf("brownout: total=%d ok=%d browned=%d rejected=%d (rate %.3f)",
		browned.total.Load(), browned.ok.Load(), browned.browned.Load(), browned.rejected.Load(), browned.rate())

	// The control server must actually have been overloaded, or the
	// comparison is vacuous — this guards the workload calibration.
	if control.rejected.Load() == 0 {
		t.Fatal("control run rejected nothing; the storm is not overloading the server")
	}
	if browned.browned.Load() == 0 {
		t.Fatal("brownout run produced no degraded responses")
	}
	if control.other.Load() != 0 || browned.other.Load() != 0 {
		t.Fatal("a request escaped the 200/429/503 overload contract")
	}
	if br, cr := browned.rate(), control.rate(); br >= cr {
		t.Fatalf("brownout rejection rate %.3f not strictly below control %.3f", br, cr)
	}

	// Hysteresis: with the storm gone, cheap polls walk the controller
	// back down one tier per hold period until full quality returns.
	client := &http.Client{Timeout: time.Minute}
	body := nrrdBody(t, 16)
	recovered := false
	for end := time.Now().Add(20 * time.Second); time.Now().Before(end); {
		time.Sleep(50 * time.Millisecond)
		resp, err := client.Post(ts.URL+"/v1/mesh?delta=2&max_elements=777&timeout=10s",
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && resp.Header.Get(BrownoutHeader) == "" {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("controller never recovered to full quality after the storm")
	}
	st := srv.Stats()
	if st.BrownedOut == 0 {
		t.Fatal("stats report zero browned-out jobs after a brownout storm")
	}
	if st.BrownoutTier != 0 {
		t.Fatalf("stats report tier %d after recovery, want 0", st.BrownoutTier)
	}
}
