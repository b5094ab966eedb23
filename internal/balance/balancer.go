package balance

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// TransferStats classifies work transfers by the topological distance
// between donor and beggar (paper Figure 5b counts the inter-blade
// accesses).
type TransferStats struct {
	IntraSocket int64
	IntraBlade  int64 // same blade, different socket
	InterBlade  int64
}

// Total returns the total number of transfers.
func (s TransferStats) Total() int64 { return s.IntraSocket + s.IntraBlade + s.InterBlade }

// Balancer is a begging list: idle threads park on it, running threads
// claim a beggar, hand it work, and wake it.
//
// Idle side:  AwaitWork(tid) — registers and blocks; returns false on
// termination. Donor side: ClaimBeggar(donor) pops a beggar (preferring
// topologically close ones for HWS); the donor then fills the beggar's
// work queue and calls Wake.
type Balancer interface {
	Name() string
	AwaitWork(tid int) bool
	ClaimBeggar(donor int) (beggar int, ok bool)
	Wake(beggar int)
	Quiesce()
	// IdleNs reports the total nanoseconds tid spent parked (the
	// paper's load-balance overhead).
	IdleNs(tid int) int64
	// Idle reports how many threads are currently parked.
	Idle() int
	Transfers() TransferStats
}

// common holds the machinery shared by RWS and HWS.
type common struct {
	topo    Topology
	hasWork []atomic.Bool
	tokens  []chan struct{} // where each idle thread parks
	idleNs  []atomic.Int64
	idle    atomic.Int32
	done    atomic.Bool

	stats struct {
		intraSocket atomic.Int64
		intraBlade  atomic.Int64
		interBlade  atomic.Int64
	}
}

func newCommon(n int, topo Topology) common {
	tokens := make([]chan struct{}, n)
	for i := range tokens {
		tokens[i] = make(chan struct{}, 1)
	}
	return common{
		topo:    topo,
		hasWork: make([]atomic.Bool, n),
		tokens:  tokens,
		idleNs:  make([]atomic.Int64, n),
	}
}

// post wakes a thread parked on its one-slot token channel, without
// blocking: a token already pending will do. hasWork and done stay the
// condition and a token only means "look again", so a release that
// stores its flag before posting is never lost, and a stale token costs
// one extra check.
func post(token chan struct{}) {
	select {
	case token <- struct{}{}:
	default:
	}
}

// Wake implements Balancer.
func (c *common) Wake(beggar int) {
	c.hasWork[beggar].Store(true)
	post(c.tokens[beggar])
}

// Quiesce implements Balancer.
func (c *common) Quiesce() {
	c.done.Store(true)
	for _, token := range c.tokens {
		post(token)
	}
}

func (c *common) await(tid int) bool {
	start := time.Now()
	c.idle.Add(1)
	for !c.hasWork[tid].Load() && !c.done.Load() {
		<-c.tokens[tid]
	}
	c.idle.Add(-1)
	c.idleNs[tid].Add(int64(time.Since(start)))
	return !c.done.Load()
}

func (c *common) record(donor, beggar int) {
	switch {
	case c.topo.SameSocket(donor, beggar):
		c.stats.intraSocket.Add(1)
	case c.topo.SameBlade(donor, beggar):
		c.stats.intraBlade.Add(1)
	default:
		c.stats.interBlade.Add(1)
	}
}

func (c *common) transfers() TransferStats {
	return TransferStats{
		IntraSocket: c.stats.intraSocket.Load(),
		IntraBlade:  c.stats.intraBlade.Load(),
		InterBlade:  c.stats.interBlade.Load(),
	}
}

// RWS is the classic flat begging list (Random Work Stealing, Section
// 4.4): one global FIFO, donors serve whoever registered first
// regardless of topology.
type RWS struct {
	common
	mu    sync.Mutex
	queue []int
}

// NewRWS creates a flat begging list for n threads.
func NewRWS(n int, topo Topology) *RWS {
	return &RWS{common: newCommon(n, topo)}
}

// Name implements Balancer.
func (*RWS) Name() string { return "RWS" }

// AwaitWork implements Balancer.
func (b *RWS) AwaitWork(tid int) bool {
	b.hasWork[tid].Store(false)
	b.mu.Lock()
	b.queue = append(b.queue, tid)
	b.mu.Unlock()
	return b.await(tid)
}

// ClaimBeggar implements Balancer.
func (b *RWS) ClaimBeggar(donor int) (int, bool) {
	if faultinject.Fire(faultinject.DropSteal) {
		return 0, false // injected lost steal: donor keeps the work
	}
	b.mu.Lock()
	if len(b.queue) == 0 {
		b.mu.Unlock()
		return 0, false
	}
	beggar := b.queue[0]
	b.queue = b.queue[1:]
	b.mu.Unlock()
	b.record(donor, beggar)
	return beggar, true
}

// IdleNs implements Balancer.
func (b *RWS) IdleNs(tid int) int64 { return b.idleNs[tid].Load() }

// Idle implements Balancer.
func (b *RWS) Idle() int { return int(b.idle.Load()) }

// Transfers implements Balancer.
func (b *RWS) Transfers() TransferStats { return b.transfers() }

// HWS is the Hierarchical Work Stealing begging list (Section 6.1):
// BL1 is shared among the threads of one socket (capacity
// cores/socket - 1), BL2 among the sockets of one blade (capacity
// sockets/blade - 1), BL3 among all blades (capacity one thread per
// blade). Idle threads overflow outward; donors serve BL1 of their own
// socket first, then BL2 of their blade, then BL3 — so work transfers
// stay topologically close and inter-blade traffic drops.
type HWS struct {
	common
	mu sync.Mutex
	// bl1[socket], bl2[blade], bl3 with per-blade occupancy.
	bl1      [][]int
	bl2      [][]int
	bl3      []int
	bl3Blade []int // occupancy per blade in bl3
}

// NewHWS creates the hierarchical begging list for n threads on topo.
func NewHWS(n int, topo Topology) *HWS {
	sockets := topo.SocketsPerBlade * topo.Blades
	return &HWS{
		common:   newCommon(n, topo),
		bl1:      make([][]int, sockets),
		bl2:      make([][]int, topo.Blades),
		bl3Blade: make([]int, topo.Blades),
	}
}

// Name implements Balancer.
func (*HWS) Name() string { return "HWS" }

// AwaitWork implements Balancer.
func (b *HWS) AwaitWork(tid int) bool {
	b.hasWork[tid].Store(false)
	s := b.topo.Socket(tid)
	bl := b.topo.Blade(tid)
	b.mu.Lock()
	switch {
	case len(b.bl1[s]) < b.topo.CoresPerSocket-1:
		b.bl1[s] = append(b.bl1[s], tid)
	case len(b.bl2[bl]) < b.topo.SocketsPerBlade-1:
		b.bl2[bl] = append(b.bl2[bl], tid)
	default:
		b.bl3 = append(b.bl3, tid)
		b.bl3Blade[bl]++
	}
	b.mu.Unlock()
	return b.await(tid)
}

// ClaimBeggar implements Balancer.
func (b *HWS) ClaimBeggar(donor int) (int, bool) {
	if faultinject.Fire(faultinject.DropSteal) {
		return 0, false // injected lost steal: donor keeps the work
	}
	s := b.topo.Socket(donor)
	bl := b.topo.Blade(donor)
	b.mu.Lock()
	var beggar int
	switch {
	case len(b.bl1[s]) > 0:
		beggar = b.bl1[s][0]
		b.bl1[s] = b.bl1[s][1:]
	case len(b.bl2[bl]) > 0:
		beggar = b.bl2[bl][0]
		b.bl2[bl] = b.bl2[bl][1:]
	case len(b.bl3) > 0:
		beggar = b.bl3[0]
		b.bl3 = b.bl3[1:]
		b.bl3Blade[b.topo.Blade(beggar)]--
	default:
		b.mu.Unlock()
		return 0, false
	}
	b.mu.Unlock()
	b.record(donor, beggar)
	return beggar, true
}

// IdleNs implements Balancer.
func (b *HWS) IdleNs(tid int) int64 { return b.idleNs[tid].Load() }

// Idle implements Balancer.
func (b *HWS) Idle() int { return int(b.idle.Load()) }

// Transfers implements Balancer.
func (b *HWS) Transfers() TransferStats { return b.transfers() }
