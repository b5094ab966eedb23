// Package arena provides chunked, handle-addressed concurrent storage
// for the mesh kernel.
//
// The shared Delaunay mesh stores vertices and cells in arenas instead
// of individual heap objects: entries are addressed by dense uint32
// handles, allocation is per-worker (a worker owns the chunk it is
// currently filling, so allocation is contention-free except when a
// new chunk must be registered), and memory is never returned until
// Reset, so speculative readers can always dereference a handle they
// obtained earlier — the entry may be marked dead by its owner, but
// the memory stays valid and type-stable. The arena itself only
// appends; an owner that knows no reader can still hold a handle may
// put a dead entry's slot to new use (the Delaunay kernel does so on a
// single-owner mesh, through per-worker free lists). This mirrors the
// custom allocators of the paper's C++ implementation, which recycle
// storage, and keeps pressure off the Go GC: entries live in
// fixed-size chunks of 1,024, few enough objects for the collector and
// small enough that a mesh's allocators, each filling its own chunk,
// hold little beyond the mesh.
package arena

import (
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	// ChunkShift determines the chunk size (entries per chunk): 1,024
	// entries, 72 KiB of Delaunay cells or 56 KiB of vertices. Every
	// allocator holds a partly filled chunk, so a chunk is kept small
	// beside the meshes a session serves (~9k cells at scale 48).
	ChunkShift = 10
	// ChunkSize is the number of entries in one chunk.
	ChunkSize = 1 << ChunkShift
	chunkMask = ChunkSize - 1
	// MaxChunks bounds the total capacity at MaxChunks*ChunkSize
	// entries (2^23 with the defaults, ~604 MB of cells, about 2.5× a
	// 3×10^6-tetrahedron mesh). The chunk-pointer table is a fixed
	// array, so At loads a chunk in one step; it lives in every arena
	// whatever its mesh and every collection scans it, so it is kept to
	// 64 KiB. A run past the capacity panics in Alloc, which the
	// refiner turns into an aborted run.
	MaxChunks = 1 << 13
)

// Handle addresses one entry in an Arena. The zero handle is reserved
// as "nil" and is never returned by Alloc.
type Handle uint32

// Nil is the reserved null handle.
const Nil Handle = 0

// Arena is a concurrent chunked store of T. Create with New, allocate
// through per-worker Allocators, and dereference with At.
type Arena[T any] struct {
	chunks [MaxChunks]atomic.Pointer[chunk[T]]

	mu        sync.Mutex
	numChunks int32 // guarded by mu for writers; read atomically

	length atomic.Int64 // total entries handed out (monotone)
}

// chunk is one block of entries. used is how many of them the chunk's
// owning Allocator has handed out since the chunk was last registered;
// it is what a recycled chunk must zero to honour Alloc's contract.
type chunk[T any] struct {
	e    [ChunkSize]T
	used uint32
}

// New returns an empty arena whose first slot (Handle 0) is burned as
// the nil handle.
func New[T any]() *Arena[T] {
	a := &Arena[T]{}
	a.chunks[0].Store(new(chunk[T]))
	a.numChunks = 1
	a.length.Store(1) // slot 0 reserved
	return a
}

// At returns a pointer to the entry addressed by h. The pointer stays
// valid for the lifetime of the arena. At panics on the nil handle or
// an out-of-range chunk.
func (a *Arena[T]) At(h Handle) *T {
	if h == Nil {
		panic("arena: dereference of nil handle")
	}
	c := a.chunks[h>>ChunkShift].Load()
	return &c.e[h&chunkMask]
}

// Len returns the total number of entries allocated so far (including
// the reserved slot 0 and any per-allocator slack at the tail of
// partially filled chunks' predecessors).
func (a *Arena[T]) Len() int { return int(a.length.Load()) }

// ForEach visits every slot of every registered chunk (except the
// reserved nil slot), including slots not yet handed out by an
// allocator — those hold zero values, which callers must be able to
// recognize and skip. It must not race with allocation; intended for
// whole-structure sweeps after parallel work has quiesced.
func (a *Arena[T]) ForEach(fn func(Handle, *T)) {
	a.mu.Lock()
	n := a.numChunks
	a.mu.Unlock()
	for ci := int32(0); ci < n; ci++ {
		c := a.chunks[ci].Load()
		if c == nil {
			continue
		}
		start := 0
		if ci == 0 {
			start = 1 // skip the nil handle
		}
		for off := start; off < ChunkSize; off++ {
			fn(Handle(uint32(ci)<<ChunkShift|uint32(off)), &c.e[off])
		}
	}
}

// newChunk registers a chunk — a fresh one, or after Reset a recycled
// one whose handed-out entries are zeroed first, so Alloc's entries are
// zero-valued and ForEach never sees a previous cycle's contents — and
// returns its index.
func (a *Arena[T]) newChunk() int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	idx := a.numChunks
	if idx >= MaxChunks {
		panic(fmt.Sprintf("arena: capacity exhausted (%d chunks)", MaxChunks))
	}
	if c := a.chunks[idx].Load(); c == nil {
		a.chunks[idx].Store(new(chunk[T]))
	} else {
		clear(c.e[:c.used])
		c.used = 0
	}
	a.numChunks = idx + 1
	return idx
}

// Reset logically discards all entries, returning the arena to its
// initial state while retaining the allocated chunks for reuse (each
// is zeroed when an allocator draws it again). It must not race with
// any concurrent use; it exists for arenas a single owner rebuilds
// many times (a session's mesh between runs, the local triangulations
// of vertex removal). Outstanding Allocators must be discarded or
// Reset as well.
func (a *Arena[T]) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.numChunks = 1
	a.length.Store(1)
}

// Prefix is a copy of everything an arena had handed out when Record
// was called: the used entries of every registered chunk, chunk by
// chunk. Rewind puts the arena back into exactly that state. The copy
// lives here, inside the generic arena, so entry types that embed
// atomics are copied as plain memory while nothing else can observe
// them (Record and Rewind share Reset's single-owner contract).
type Prefix[T any] struct {
	chunks [][]T
	length int64
}

// Record captures the arena's current contents. It must not race with
// allocation or with writers of the entries.
func (a *Arena[T]) Record() *Prefix[T] {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := &Prefix[T]{chunks: make([][]T, a.numChunks), length: a.length.Load()}
	for i := range p.chunks {
		c := a.chunks[i].Load()
		p.chunks[i] = append([]T(nil), c.e[:c.used]...)
	}
	return p
}

// Rewind discards every entry allocated since p was recorded and
// restores the recorded entries' contents, retaining later chunks for
// reuse exactly as Reset does. Allocators drawing from the arena
// afterwards receive the same handle sequence they would have received
// right after Record. p must come from this arena; outstanding
// Allocators must be discarded or Reset.
func (a *Arena[T]) Rewind(p *Prefix[T]) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, saved := range p.chunks {
		c := a.chunks[i].Load()
		n := copy(c.e[:], saved)
		if int(c.used) > n {
			clear(c.e[n:c.used])
		}
		c.used = uint32(n)
	}
	a.numChunks = int32(len(p.chunks))
	a.length.Store(p.length)
}

// Allocator hands out handles from chunks owned by a single worker.
// An Allocator must not be used concurrently; each worker goroutine
// owns one.
type Allocator[T any] struct {
	a     *Arena[T]
	chunk int32
	next  uint32 // next free offset within chunk; ChunkSize means "no chunk"
}

// NewAllocator returns an allocator drawing from a.
func (a *Arena[T]) NewAllocator() *Allocator[T] {
	return &Allocator[T]{a: a, chunk: -1, next: ChunkSize}
}

// Alloc reserves one entry and returns its handle. The entry is
// zero-valued; the caller initializes it before publishing the handle
// to other workers.
func (al *Allocator[T]) Alloc() Handle {
	if al.next >= ChunkSize {
		al.chunk = al.a.newChunk()
		al.next = 0
	}
	h := Handle(uint32(al.chunk)<<ChunkShift | al.next)
	al.next++
	al.a.chunks[al.chunk].Load().used = al.next
	al.a.length.Add(1)
	return h
}

// At is shorthand for the arena's At.
func (al *Allocator[T]) At(h Handle) *T { return al.a.At(h) }

// Reset detaches the allocator from its current chunk so the next
// Alloc draws a fresh one; used together with Arena.Reset.
func (al *Allocator[T]) Reset() {
	al.chunk = -1
	al.next = ChunkSize
}
