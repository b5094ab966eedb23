package balance

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestTopologyMapping(t *testing.T) {
	topo := Topology{CoresPerSocket: 8, SocketsPerBlade: 2, Blades: 4}
	if topo.Cores() != 64 {
		t.Fatalf("Cores = %d", topo.Cores())
	}
	if topo.Socket(0) != 0 || topo.Socket(7) != 0 || topo.Socket(8) != 1 {
		t.Error("Socket mapping wrong")
	}
	if topo.Blade(15) != 0 || topo.Blade(16) != 1 {
		t.Error("Blade mapping wrong")
	}
	if !topo.SameSocket(0, 7) || topo.SameSocket(7, 8) {
		t.Error("SameSocket wrong")
	}
	if !topo.SameBlade(7, 8) || topo.SameBlade(15, 16) {
		t.Error("SameBlade wrong")
	}
	// Oversubscription wraps.
	if topo.Core(64) != 0 || topo.Socket(64) != 0 {
		t.Error("oversubscribed worker not wrapped")
	}
}

func TestForWorkers(t *testing.T) {
	topo := ForWorkers(20)
	if topo.Cores() < 20 {
		t.Errorf("ForWorkers(20) has %d cores", topo.Cores())
	}
	if ForWorkers(1).Blades != 1 {
		t.Error("ForWorkers(1) should be one blade")
	}
}

func TestBlacklightSpec(t *testing.T) {
	if Blacklight.Cores() != 2048 {
		t.Errorf("Blacklight cores = %d, want 2048", Blacklight.Cores())
	}
	if CRTC.Cores() != 12 {
		t.Errorf("CRTC cores = %d, want 12", CRTC.Cores())
	}
}

func testHandoff(t *testing.T, b Balancer) {
	t.Helper()
	got := make(chan bool, 1)
	go func() {
		got <- b.AwaitWork(3)
	}()
	// Wait for registration.
	deadline := time.After(2 * time.Second)
	for b.Idle() == 0 {
		select {
		case <-deadline:
			t.Fatal("beggar never registered")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	beggar, ok := b.ClaimBeggar(0)
	if !ok || beggar != 3 {
		t.Fatalf("ClaimBeggar = %d, %v", beggar, ok)
	}
	b.Wake(beggar)
	select {
	case v := <-got:
		if !v {
			t.Fatal("AwaitWork returned false before quiesce")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("woken beggar did not return")
	}
	if _, ok := b.ClaimBeggar(0); ok {
		t.Fatal("phantom beggar claimed")
	}
}

func TestRWSHandoff(t *testing.T) {
	testHandoff(t, NewRWS(8, ForWorkers(8)))
}

func TestHWSHandoff(t *testing.T) {
	testHandoff(t, NewHWS(8, ForWorkers(8)))
}

func testQuiesce(t *testing.T, b Balancer) {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- b.AwaitWork(1) }()
	for b.Idle() == 0 {
		time.Sleep(time.Millisecond)
	}
	b.Quiesce()
	select {
	case v := <-done:
		if v {
			t.Fatal("AwaitWork returned true after quiesce")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("quiesce did not release the beggar")
	}
}

func TestRWSQuiesce(t *testing.T) { testQuiesce(t, NewRWS(4, ForWorkers(4))) }
func TestHWSQuiesce(t *testing.T) { testQuiesce(t, NewHWS(4, ForWorkers(4))) }

// registerInOrder parks the given threads one at a time, so list
// placement is deterministic.
func registerInOrder(t *testing.T, b Balancer, wg *sync.WaitGroup, tids ...int) {
	t.Helper()
	for i, tid := range tids {
		wg.Add(1)
		go func(tid int) { defer wg.Done(); b.AwaitWork(tid) }(tid)
		deadline := time.After(2 * time.Second)
		for b.Idle() < i+1 {
			select {
			case <-deadline:
				t.Fatalf("thread %d never registered", tid)
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func TestHWSPrefersLocalBeggars(t *testing.T) {
	// Topology: 2 cores/socket, 2 sockets/blade, 2 blades = 8 cores.
	// BL1 capacity is 1 per socket, BL2 capacity 1 per blade.
	topo := Topology{CoresPerSocket: 2, SocketsPerBlade: 2, Blades: 2}
	b := NewHWS(8, topo)
	var wg sync.WaitGroup
	// 1 -> BL1[socket0]; 3 -> BL1[socket1]; 2 -> BL2[blade0] (its BL1
	// is full); 4 -> BL1[socket2]; 5 -> BL2[blade1]; 6 -> BL1[socket3];
	// 7 -> BL3 (BL1[socket3] and BL2[blade1] full).
	registerInOrder(t, b, &wg, 1, 3, 2, 4, 5, 6, 7)

	// Donor 0 (socket 0, blade 0): own-socket BL1 first, then its
	// blade's BL2, then BL3. Other sockets' BL1 waiters are invisible
	// to it — that is the point of the hierarchy.
	wantOrder := []int{1, 2, 7}
	for _, want := range wantOrder {
		beggar, ok := b.ClaimBeggar(0)
		if !ok || beggar != want {
			t.Fatalf("claim = %d (ok=%v), want %d", beggar, ok, want)
		}
	}
	if _, ok := b.ClaimBeggar(0); ok {
		t.Fatal("donor 0 claimed a beggar from a foreign socket's BL1")
	}
	st := b.Transfers()
	if st.IntraSocket != 1 || st.IntraBlade != 1 || st.InterBlade != 1 {
		t.Errorf("transfer stats = %+v", st)
	}
	b.Quiesce()
	wg.Wait()
}

func TestHWSOverflowToOuterLists(t *testing.T) {
	// All of blade 0 (threads 0-3) go idle in order: 0 -> BL1[0],
	// 1 -> BL1[0] full -> BL2[0], wait: 1 is socket 0 too, so
	// 1 -> BL2[blade0]; 2 -> BL1[socket1]; 3 -> BL2 full -> BL3.
	topo := Topology{CoresPerSocket: 2, SocketsPerBlade: 2, Blades: 2}
	b := NewHWS(8, topo)
	var wg sync.WaitGroup
	registerInOrder(t, b, &wg, 0, 1, 2, 3)
	// A donor on blade 1 has empty BL1/BL2 of its own, so it must
	// reach BL3, where exactly one blade-0 thread sits.
	beggar, ok := b.ClaimBeggar(4)
	if !ok {
		t.Fatal("donor on blade 1 found no beggar in BL3")
	}
	if beggar != 3 {
		t.Errorf("BL3 beggar = %d, want 3", beggar)
	}
	st := b.Transfers()
	if st.InterBlade != 1 {
		t.Errorf("InterBlade = %d, want 1", st.InterBlade)
	}
	b.Quiesce()
	wg.Wait()
}

func TestRWSFIFO(t *testing.T) {
	b := NewRWS(8, ForWorkers(8))
	var wg sync.WaitGroup
	for _, tid := range []int{5, 2, 7} {
		wg.Add(1)
		go func(tid int) { defer wg.Done(); b.AwaitWork(tid) }(tid)
		// Ensure deterministic registration order.
		for b.Idle() == 0 {
			time.Sleep(time.Millisecond)
		}
		deadline := time.After(time.Second)
		for {
			if n := b.Idle(); n > 0 {
				break
			}
			select {
			case <-deadline:
				t.Fatal("registration timeout")
			default:
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	order := []int{}
	for {
		beggar, ok := b.ClaimBeggar(0)
		if !ok {
			break
		}
		order = append(order, beggar)
		b.Wake(beggar)
	}
	wg.Wait()
	if len(order) != 3 || order[0] != 5 || order[1] != 2 || order[2] != 7 {
		t.Errorf("FIFO order = %v, want [5 2 7]", order)
	}
}

func TestIdleTimeAccounting(t *testing.T) {
	b := NewRWS(2, ForWorkers(2))
	done := make(chan struct{})
	go func() {
		b.AwaitWork(0)
		close(done)
	}()
	for b.Idle() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	beggar, _ := b.ClaimBeggar(1)
	b.Wake(beggar)
	<-done
	if b.IdleNs(0) < int64(5*time.Millisecond) {
		t.Errorf("IdleNs = %d, want >= 5ms", b.IdleNs(0))
	}
}

func TestOversubscribedWorkersShareTopology(t *testing.T) {
	// 32 workers on a 16-core topology: workers 0 and 16 map to the
	// same core, so a transfer between them is intra-socket.
	topo := ForWorkers(16)
	b := NewHWS(32, topo)
	if !topo.SameSocket(0, 16) {
		t.Fatal("wrapped worker not on the same socket")
	}
	var wg sync.WaitGroup
	registerInOrder(t, b, &wg, 16)
	beggar, ok := b.ClaimBeggar(0)
	if !ok || beggar != 16 {
		t.Fatalf("claim = %d (%v)", beggar, ok)
	}
	if st := b.Transfers(); st.IntraSocket != 1 {
		t.Errorf("transfer stats = %+v, want intra-socket", st)
	}
	b.Quiesce()
	wg.Wait()
}

func TestTransfersTotal(t *testing.T) {
	s := TransferStats{IntraSocket: 3, IntraBlade: 2, InterBlade: 1}
	if s.Total() != 6 {
		t.Errorf("Total = %d", s.Total())
	}
}

// TestReleaseRacesRegistration parks and wakes a beggar 20k times, with
// the donor claiming from the moment the previous cycle ends so that its
// Wake lands while the beggar is still registering or just about to
// park. A lost wake-up leaves the beggar parked and the donor with
// nobody to claim, which the 10 s deadline reports. Fresh lists then
// race Quiesce against registration the same way.
func TestReleaseRacesRegistration(t *testing.T) {
	const cycles = 20000
	for _, mk := range []func() Balancer{
		func() Balancer { return NewRWS(2, ForWorkers(2)) },
		func() Balancer { return NewHWS(2, ForWorkers(2)) },
	} {
		b := mk()
		t.Run(b.Name(), func(t *testing.T) {
			deadline := time.After(10 * time.Second)
			beggarDone := make(chan struct{})
			go func() {
				defer close(beggarDone)
				for i := 0; i < cycles; i++ {
					if !b.AwaitWork(1) {
						t.Errorf("cycle %d: AwaitWork reported termination", i)
						return
					}
				}
			}()
			for i := 0; i < cycles; i++ {
				for {
					if beggar, ok := b.ClaimBeggar(0); ok {
						b.Wake(beggar)
						break
					}
					select {
					case <-deadline:
						b.Quiesce()
						t.Fatalf("cycle %d: wake-up lost", i)
					default:
						runtime.Gosched()
					}
				}
			}
			select {
			case <-beggarDone:
			case <-deadline:
				b.Quiesce()
				t.Fatal("the last wake-up was lost")
			}

			for i := 0; i < cycles/10; i++ {
				q := mk()
				done := make(chan struct{})
				go func() { q.AwaitWork(1); close(done) }()
				q.Quiesce()
				select {
				case <-done:
				case <-deadline:
					t.Fatalf("quiesce %d: the beggar never returned", i)
				}
			}
		})
	}
}
