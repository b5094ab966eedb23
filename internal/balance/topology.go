// Package balance implements PI2M's load balancing (paper Sections
// 4.4 and 6.1): idle threads register on a Begging List and park;
// running threads donate freshly created poor elements to the first
// registered beggar. Two organizations of the begging list are
// provided — the classic flat Random Work Stealing (RWS) and the
// NUMA-aware three-level Hierarchical Work Stealing (HWS, lists per
// socket, per blade, and global) — together with a machine topology
// model that maps worker ids onto cores, sockets and blades.
//
// The topology is a *model*: worker goroutines are not pinned to
// hardware, but work transfers are classified (intra-socket,
// intra-blade, inter-blade) exactly as the paper counts remote
// accesses, so the HWS-vs-RWS comparison of Figure 5 is reproducible
// in shape on any host.
package balance

// Topology describes a cc-NUMA machine shape (paper Table 2).
type Topology struct {
	CoresPerSocket  int
	SocketsPerBlade int
	Blades          int
}

// Blacklight is the Pittsburgh Supercomputing Center machine used for
// the paper's scaling studies: Xeon X7560, 8 cores/socket, 2
// sockets/blade, 128 blades.
var Blacklight = Topology{CoresPerSocket: 8, SocketsPerBlade: 2, Blades: 128}

// CRTC is the single-blade Xeon X5690 workstation used for the
// single-threaded comparison: 6 cores/socket, 2 sockets.
var CRTC = Topology{CoresPerSocket: 6, SocketsPerBlade: 2, Blades: 1}

// Cores returns the total number of hardware cores.
func (t Topology) Cores() int { return t.CoresPerSocket * t.SocketsPerBlade * t.Blades }

// Core maps a worker id to its (virtual) core; oversubscribed workers
// (hyper-threading experiments) wrap around.
func (t Topology) Core(tid int) int { return tid % t.Cores() }

// Socket returns the socket index of a worker.
func (t Topology) Socket(tid int) int { return t.Core(tid) / t.CoresPerSocket }

// Blade returns the blade index of a worker.
func (t Topology) Blade(tid int) int { return t.Socket(tid) / t.SocketsPerBlade }

// SameSocket reports whether two workers share a socket.
func (t Topology) SameSocket(a, b int) bool { return t.Socket(a) == t.Socket(b) }

// SameBlade reports whether two workers share a blade.
func (t Topology) SameBlade(a, b int) bool { return t.Blade(a) == t.Blade(b) }

// ForWorkers returns a Blacklight-shaped topology with just enough
// blades for n workers, for host-scale experiments.
func ForWorkers(n int) Topology {
	per := Blacklight.CoresPerSocket * Blacklight.SocketsPerBlade
	blades := (n + per - 1) / per
	if blades < 1 {
		blades = 1
	}
	return Topology{
		CoresPerSocket:  Blacklight.CoresPerSocket,
		SocketsPerBlade: Blacklight.SocketsPerBlade,
		Blades:          blades,
	}
}
