package arena

import (
	"strings"
	"sync"
	"testing"
)

type entry struct {
	id  int64
	pad [2]int64
}

func TestAllocAndAt(t *testing.T) {
	a := New[entry]()
	al := a.NewAllocator()
	h := al.Alloc()
	if h == Nil {
		t.Fatal("Alloc returned the nil handle")
	}
	a.At(h).id = 42
	if got := a.At(h).id; got != 42 {
		t.Errorf("At(h).id = %d, want 42", got)
	}
}

func TestNilHandlePanics(t *testing.T) {
	a := New[entry]()
	defer func() {
		if recover() == nil {
			t.Error("At(Nil) did not panic")
		}
	}()
	a.At(Nil)
}

func TestHandlesAreDistinct(t *testing.T) {
	a := New[entry]()
	al := a.NewAllocator()
	const n = 3 * ChunkSize
	seen := make(map[Handle]bool, n)
	for i := 0; i < n; i++ {
		h := al.Alloc()
		if seen[h] {
			t.Fatalf("duplicate handle %d at iteration %d", h, i)
		}
		seen[h] = true
	}
}

func TestPointerStability(t *testing.T) {
	a := New[entry]()
	al := a.NewAllocator()
	h1 := al.Alloc()
	p1 := a.At(h1)
	p1.id = 7
	// Allocate enough to force many new chunks.
	for i := 0; i < 5*ChunkSize; i++ {
		al.Alloc()
	}
	if p1 != a.At(h1) {
		t.Error("pointer to early entry moved after growth")
	}
	if a.At(h1).id != 7 {
		t.Error("early entry value lost after growth")
	}
}

func TestConcurrentAllocators(t *testing.T) {
	a := New[entry]()
	const workers = 8
	const perWorker = 2 * ChunkSize
	handles := make([][]Handle, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			al := a.NewAllocator()
			hs := make([]Handle, perWorker)
			for i := range hs {
				h := al.Alloc()
				a.At(h).id = int64(w)<<32 | int64(i)
				hs[i] = h
			}
			handles[w] = hs
		}(w)
	}
	wg.Wait()
	seen := make(map[Handle]bool)
	for w, hs := range handles {
		for i, h := range hs {
			if seen[h] {
				t.Fatalf("handle %d allocated twice", h)
			}
			seen[h] = true
			if got := a.At(h).id; got != int64(w)<<32|int64(i) {
				t.Fatalf("worker %d entry %d corrupted: %d", w, i, got)
			}
		}
	}
}

func TestLen(t *testing.T) {
	a := New[entry]()
	if a.Len() != 1 {
		t.Errorf("fresh arena Len = %d, want 1 (reserved slot)", a.Len())
	}
	al := a.NewAllocator()
	for i := 0; i < 100; i++ {
		al.Alloc()
	}
	if a.Len() != 101 {
		t.Errorf("Len = %d, want 101", a.Len())
	}
}

func BenchmarkAlloc(b *testing.B) {
	a := New[entry]()
	al := a.NewAllocator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := al.Alloc()
		a.At(h).id = int64(i)
	}
}

func TestResetReusesChunks(t *testing.T) {
	a := New[entry]()
	al := a.NewAllocator()
	var first []Handle
	for i := 0; i < 2*ChunkSize; i++ {
		h := al.Alloc()
		a.At(h).id = int64(i)
		first = append(first, h)
	}
	a.Reset()
	al.Reset()
	if a.Len() != 1 {
		t.Fatalf("Len after reset = %d", a.Len())
	}
	// Reallocation hands out the same handle space, zero-valued again.
	h := al.Alloc()
	if h != first[0] {
		t.Fatalf("first handle after reset = %d, want %d", h, first[0])
	}
	if got := a.At(h).id; got != 0 {
		t.Fatalf("recycled entry holds %d, want the zero value", got)
	}
	a.At(h).id = 42
	if a.At(h).id != 42 {
		t.Fatal("write after reuse lost")
	}
}

// TestForEachAfterResetSeesNoStaleEntries: a sweep after Reset must see
// only what the new cycle wrote — a recycled chunk's unallocated tail
// reads as zero values, not as the previous cycle's entries.
func TestForEachAfterResetSeesNoStaleEntries(t *testing.T) {
	a := New[entry]()
	al := a.NewAllocator()
	for i := 0; i < ChunkSize+100; i++ {
		a.At(al.Alloc()).id = int64(i + 1)
	}
	a.Reset()
	al.Reset()
	for i := 0; i < 10; i++ {
		a.At(al.Alloc()).id = -1
	}
	fresh, stale := 0, 0
	a.ForEach(func(h Handle, e *entry) {
		switch {
		case e.id == -1:
			fresh++
		case e.id != 0:
			stale++
		}
	})
	if fresh != 10 || stale != 0 {
		t.Fatalf("sweep after reset saw %d fresh and %d stale entries, want 10 and 0", fresh, stale)
	}
}

func TestResetRepeatedlyNoGrowth(t *testing.T) {
	a := New[entry]()
	al := a.NewAllocator()
	var chunksAfterFirst int
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 3*ChunkSize; i++ {
			al.Alloc()
		}
		a.mu.Lock()
		n := int(a.numChunks)
		a.mu.Unlock()
		if cycle == 0 {
			chunksAfterFirst = n
		} else if n != chunksAfterFirst {
			t.Fatalf("cycle %d: %d chunks, want %d (reuse, not growth)", cycle, n, chunksAfterFirst)
		}
		a.Reset()
		al.Reset()
	}
}

func TestForEachSkipsNilChunks(t *testing.T) {
	a := New[entry]()
	al := a.NewAllocator()
	al.Alloc()
	count := 0
	a.ForEach(func(h Handle, e *entry) { count++ })
	// Chunk 0 (ChunkSize-1 visitable slots) + chunk 1 (ChunkSize slots).
	if count != 2*ChunkSize-1 {
		t.Fatalf("visited %d slots, want %d", count, 2*ChunkSize-1)
	}
}

// TestRewindRestoresPrefix: after Record, any amount of further
// allocation and mutation of recorded entries, Rewind puts back the
// recorded contents, drops everything later, and a fresh allocator
// draws the same handles a fresh allocator drew right after Record.
func TestRewindRestoresPrefix(t *testing.T) {
	a := New[entry]()
	boot := a.NewAllocator()
	var prefix []Handle
	for i := 0; i < 100; i++ {
		h := boot.Alloc()
		a.At(h).id = int64(i + 1)
		prefix = append(prefix, h)
	}
	p := a.Record()
	wantLen := a.Len()

	dirty := func() []Handle {
		al := a.NewAllocator()
		var hs []Handle
		for i := 0; i < ChunkSize+50; i++ {
			h := al.Alloc()
			a.At(h).id = -7
			hs = append(hs, h)
		}
		// The bootstrap allocator's chunk keeps filling too, and
		// recorded entries are overwritten.
		a.At(boot.Alloc()).id = -7
		for _, h := range prefix {
			a.At(h).id = -7
		}
		return hs
	}
	first := dirty()

	for cycle := 0; cycle < 3; cycle++ {
		a.Rewind(p)
		// An allocator that outlives a Rewind is Reset, as after
		// Arena.Reset; dirty draws its other allocator fresh.
		boot.Reset()
		if a.Len() != wantLen {
			t.Fatalf("cycle %d: Len after rewind = %d, want %d", cycle, a.Len(), wantLen)
		}
		for i, h := range prefix {
			if got := a.At(h).id; got != int64(i+1) {
				t.Fatalf("cycle %d: recorded entry %d holds %d, want %d", cycle, h, got, i+1)
			}
		}
		recorded, stale := 0, 0
		a.ForEach(func(h Handle, e *entry) {
			switch {
			case e.id > 0:
				recorded++
			case e.id != 0:
				stale++
			}
		})
		if recorded != len(prefix) || stale != 0 {
			t.Fatalf("cycle %d: sweep after rewind saw %d recorded and %d stale entries, want %d and 0",
				cycle, recorded, stale, len(prefix))
		}
		again := dirty()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("cycle %d: allocation %d after rewind = handle %d, want %d", cycle, i, again[i], first[i])
			}
		}
	}
}

// TestRewindToEmptyPrefix: a prefix recorded on a fresh arena rewinds
// to the state Reset produces.
func TestRewindToEmptyPrefix(t *testing.T) {
	a := New[entry]()
	p := a.Record()
	al := a.NewAllocator()
	first := al.Alloc()
	a.At(first).id = 5
	a.Rewind(p)
	al.Reset()
	if a.Len() != 1 {
		t.Fatalf("Len after rewind = %d, want 1", a.Len())
	}
	if h := al.Alloc(); h != first || a.At(h).id != 0 {
		t.Fatalf("first handle after rewind = %d holding %d, want %d holding 0", h, a.At(h).id, first)
	}
}

// TestCapacityExhaustedPanics: one allocator fills every chunk the
// fixed table can register, ending on the last handle there is, and the
// Alloc after that panics rather than writing past the table.
func TestCapacityExhaustedPanics(t *testing.T) {
	a := New[struct{ b byte }]()
	al := a.NewAllocator()
	var last Handle
	for range (MaxChunks - 1) * ChunkSize { // chunk 0 holds only the nil slot
		last = al.Alloc()
	}
	if last != MaxChunks*ChunkSize-1 {
		t.Fatalf("last handle %d, want %d", last, MaxChunks*ChunkSize-1)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "capacity exhausted") {
			t.Fatalf("Alloc past capacity recovered %q, want a capacity-exhausted panic", r)
		}
	}()
	al.Alloc()
}
