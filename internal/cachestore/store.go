package cachestore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the cache directory; created if absent. Layout:
	//
	//	<dir>/blobs/<sha256(key)>.snap   framed snapshot blobs — the
	//	                                 only durable state; the index
	//	                                 is rebuilt from them at Open
	//	<dir>/blobs/*.tmp                writes in flight
	//	<dir>/quarantine/                corrupt blobs, moved aside
	//
	// Any number of stores, in one process or several, may share a
	// directory without coordinating.
	Dir string
	// MaxBytes is the LRU byte budget across all live entries (blob
	// bytes on disk, estimated snapshot bytes for memory-only entries).
	// 0 selects the default of 1 GiB.
	MaxBytes int64
	// ReprobeInterval is how often a degraded (memory-only) store
	// re-probes the disk with a real write, flipping back to durable
	// mode on success. 0 selects the default of 5s.
	ReprobeInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 30
	}
	if c.ReprobeInterval <= 0 {
		c.ReprobeInterval = 5 * time.Second
	}
	return c
}

// Stats is a snapshot of the store's counters (the serving layer
// exposes them as pi2md_cache_* / pi2md_fsck_* metrics).
type Stats struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Writes          int64 `json:"writes"`
	Evictions       int64 `json:"evictions"`
	Corrupt         int64 `json:"corrupt"`
	Adopted         int64 `json:"adopted,omitempty"`
	FsckQuarantined int64 `json:"fsck_quarantined"`
	Bytes           int64 `json:"bytes"`
	Entries         int   `json:"entries"`
	Degraded        bool  `json:"degraded"`
}

// entry is one live index entry. mem is non-nil for entries accepted
// while the store was degraded: they live in memory only and are
// served without touching the disk.
type entry struct {
	imageKey string
	variant  string
	bytes    int64
	etag     string
	elem     *list.Element
	mem      *core.MeshSnapshot
}

const (
	blobsDirName   = "blobs"
	quarantineName = "quarantine"
)

func entryKey(imageKey, variant string) string { return imageKey + "\x00" + variant }

// blobName content-addresses the (image key, variant) pair: an entry's
// file name is a pure function of its key.
func blobName(imageKey, variant string) string {
	sum := sha256.Sum256([]byte(entryKey(imageKey, variant)))
	return hex.EncodeToString(sum[:]) + ".snap"
}

// Store is a crash-safe persistent snapshot cache. All methods are
// safe for concurrent use.
type Store struct {
	cfg Config

	mu         sync.Mutex
	entries    map[string]*entry
	lru        *list.List // front = most recently used
	totalBytes int64
	closed     bool
	lastProbe  time.Time

	degraded atomic.Bool

	hits, misses, writes, evictions, corrupt atomic.Int64
	adopted                                  atomic.Int64
	fsckQuarantined                          int64 // set once by Open
}

// Open opens (or creates) the store at cfg.Dir and runs the boot-time
// fsck pass described in the package comment. The returned report says
// what fsck found; Open only fails for unrecoverable environment
// problems (the directory cannot be created or read). It writes nothing
// but the directories themselves.
func Open(cfg Config) (*Store, FsckReport, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
	for _, d := range []string{cfg.Dir, filepath.Join(cfg.Dir, blobsDirName), filepath.Join(cfg.Dir, quarantineName)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, FsckReport{}, fmt.Errorf("cachestore: creating %s: %w", d, err)
		}
	}
	rep, err := s.fsck()
	if err != nil {
		return nil, rep, err
	}
	s.fsckQuarantined = int64(rep.Quarantined)
	return s, rep, nil
}

// Degraded reports whether the store is in memory-only mode after a
// disk write failure.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	bytes := s.totalBytes
	n := len(s.entries)
	s.mu.Unlock()
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Writes:          s.writes.Load(),
		Evictions:       s.evictions.Load(),
		Corrupt:         s.corrupt.Load(),
		Adopted:         s.adopted.Load(),
		FsckQuarantined: s.fsckQuarantined,
		Bytes:           bytes,
		Entries:         n,
		Degraded:        s.degraded.Load(),
	}
}

// ETag answers a lookup from the index alone — no blob I/O. ok is false
// when the pair is not cached. A successful lookup counts as a hit and
// refreshes the entry's recency: the caller is about to answer from it
// — a 304, bytes it already holds for this etag, or a Read.
func (s *Store) ETag(imageKey, variant string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryKey(imageKey, variant)]
	if !ok {
		return "", false
	}
	s.lru.MoveToFront(e.elem)
	s.hits.Add(1)
	return e.etag, true
}

// Contains reports whether the pair is indexed, without counting a hit
// or touching recency.
func (s *Store) Contains(imageKey, variant string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[entryKey(imageKey, variant)]
	return ok
}

// Get returns the cached snapshot for (imageKey, variant), re-verifying
// the blob's CRC and embedded identity before a byte is trusted. A
// corrupt blob — or a valid one sitting at another key's path — is moved
// to quarantine, dropped from the index, counted, and reported as a
// miss: corrupt bytes are never served, they cost one re-mesh.
//
// The index is a hint, not the authority on what is readable. A key it
// does not hold is still tried at its deterministic blob path, and a
// verified blob found there — written by another process sharing the
// directory — is adopted into the index and served as a hit. That is
// what lets a replica answer for a dead peer's keys the moment the bytes
// are reachable, without a restart or a re-mesh.
func (s *Store) Get(imageKey, variant string) (*core.MeshSnapshot, string, bool) {
	return s.get(imageKey, variant, 1)
}

// Read is Get for a caller whose ETag lookup has just counted this
// request's hit: the same read, verification and outcomes, except that
// success is not counted a second time.
func (s *Store) Read(imageKey, variant string) (*core.MeshSnapshot, string, bool) {
	return s.get(imageKey, variant, 0)
}

func (s *Store) get(imageKey, variant string, hit int64) (*core.MeshSnapshot, string, bool) {
	k := entryKey(imageKey, variant)
	s.mu.Lock()
	e := s.entries[k]
	if e != nil && e.mem != nil {
		s.lru.MoveToFront(e.elem)
		s.hits.Add(hit)
		snap, etag := e.mem, e.etag
		s.mu.Unlock()
		return snap, etag, true
	}
	s.mu.Unlock()

	// A failed read — never written, evicted (by us or a peer), or the
	// disk failing reads — is a miss, not an error the caller must handle.
	name := blobName(imageKey, variant)
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, blobsDirName, name))
	var snap *core.MeshSnapshot
	var etag string
	if err == nil {
		var meta blobMeta
		meta, snap, etag, err = decodeBlob(data)
		if err == nil && (meta.ImageKey != imageKey || meta.Variant != variant) {
			err = fmt.Errorf("cachestore: blob %s carries identity (%.16s…, %q), caller asked for (%.16s…, %q)",
				name, meta.ImageKey, meta.Variant, imageKey, variant)
		}
		if err != nil {
			s.quarantineBlob(name)
			s.corrupt.Add(1)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if e != nil {
			s.removeLocked(k, e, false)
		}
		s.misses.Add(1)
		return nil, "", false
	}
	if cur, ok := s.entries[k]; ok {
		s.lru.MoveToFront(cur.elem)
	} else if !s.closed {
		s.indexLocked(&entry{imageKey: imageKey, variant: variant, bytes: int64(len(data)), etag: etag})
		s.adopted.Add(1)
		s.evictLocked()
	}
	s.hits.Add(hit)
	return snap, etag, true
}

// Put stores a snapshot for (imageKey, variant). Disk failures never
// propagate to the caller: a write error (ENOSPC, EIO, injected) flips
// the store to memory-only degraded mode and the entry is kept in
// memory instead, so meshing never fails because the disk did. The
// returned etag identifies the entry for conditional GETs.
func (s *Store) Put(imageKey, variant string, snap *core.MeshSnapshot) (string, error) {
	if imageKey == "" || snap == nil {
		return "", errors.New("cachestore: Put needs an image key and a snapshot")
	}
	meta := blobMeta{
		ImageKey:  imageKey,
		Variant:   variant,
		CreatedNS: time.Now().UnixNano(),
		Summary:   snap.Summary,
	}
	data, etag, err := encodeBlob(meta, snap)
	if err != nil {
		return "", err
	}
	if int64(len(data)) > s.cfg.MaxBytes {
		// One oversized entry must not evict the whole cache; skip it.
		return etag, nil
	}
	name := blobName(imageKey, variant)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return etag, errors.New("cachestore: store closed")
	}

	durable := true
	if s.degraded.Load() {
		if time.Since(s.lastProbe) < s.cfg.ReprobeInterval {
			durable = false
		} else {
			s.lastProbe = time.Now()
		}
	}
	if durable {
		if werr := s.writeBlobFile(name, data); werr != nil {
			// Memory-only from here: reads of already-stored blobs keep
			// working (the disk may still read fine); new entries live in
			// memory until a re-probe write lands.
			s.degraded.Store(true)
			s.lastProbe = time.Now()
			durable = false
		} else if s.degraded.Load() {
			// The re-probe landed: the disk accepts writes again.
			s.degraded.Store(false)
		}
	}

	k := entryKey(imageKey, variant)
	if old, ok := s.entries[k]; ok {
		s.removeLocked(k, old, false)
	}
	e := &entry{imageKey: imageKey, variant: variant, bytes: int64(len(data)), etag: etag}
	if !durable {
		e.mem = snap
		e.bytes = int64(snap.SizeBytes())
	}
	s.indexLocked(e)
	s.writes.Add(1)
	s.evictLocked()
	return etag, nil
}

// indexLocked makes e the most recently used entry. Caller holds s.mu
// (or is Open, before the store is shared).
func (s *Store) indexLocked(e *entry) {
	e.elem = s.lru.PushFront(e)
	s.entries[entryKey(e.imageKey, e.variant)] = e
	s.totalBytes += e.bytes
}

// writeBlobFile writes one framed blob with atomicWriteFile's crash-safe
// discipline; the two fsyncs there are every durable write a Put makes.
// The faultinject points simulate the disk failing (CacheWriteFail/
// CacheENOSPC) or lying (CacheTornWrite/CacheBitFlip — the write
// "succeeds" but the blob is corrupt, which the CRC must catch later).
// Caller holds s.mu.
func (s *Store) writeBlobFile(name string, data []byte) error {
	if faultinject.Fire(faultinject.CacheENOSPC) {
		return fmt.Errorf("cachestore: injected disk-full: %w", syscall.ENOSPC)
	}
	if faultinject.Fire(faultinject.CacheWriteFail) {
		return fmt.Errorf("cachestore: injected write failure: %w", syscall.EIO)
	}
	if faultinject.Fire(faultinject.CacheTornWrite) {
		data = data[:len(data)/2]
	} else if faultinject.Fire(faultinject.CacheBitFlip) {
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0x40
		data = flipped
	}
	return atomicWriteFile(filepath.Join(s.cfg.Dir, blobsDirName, name), data)
}

// evictLocked enforces the byte budget, least-recently-used first. The
// newest entry is never evicted (budget admission already capped its
// size). Caller holds s.mu (or is Open, before the store is shared).
func (s *Store) evictLocked() {
	for s.totalBytes > s.cfg.MaxBytes && s.lru.Len() > 1 {
		el := s.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		s.removeLocked(entryKey(e.imageKey, e.variant), e, true)
		s.evictions.Add(1)
	}
}

// removeLocked unlinks an entry, if it is still the live one for its
// key, and optionally deletes its blob. Caller holds s.mu.
func (s *Store) removeLocked(k string, e *entry, deleteBlob bool) {
	if s.entries[k] != e {
		return
	}
	delete(s.entries, k)
	s.lru.Remove(e.elem)
	s.totalBytes -= e.bytes
	if deleteBlob && e.mem == nil {
		os.Remove(filepath.Join(s.cfg.Dir, blobsDirName, blobName(e.imageKey, e.variant)))
	}
}

// quarantineBlob moves a corrupt blob into quarantine/ so it is never
// served again but stays available for post-mortem; if the move fails
// the blob is deleted outright.
func (s *Store) quarantineBlob(name string) {
	src := filepath.Join(s.cfg.Dir, blobsDirName, name)
	dst := filepath.Join(s.cfg.Dir, quarantineName, name)
	if err := os.Rename(src, dst); err != nil {
		os.Remove(src)
	}
}

// KeyInfo names one cached entry for warm-start consumers.
type KeyInfo struct {
	ImageKey string
	Variant  string
	ETag     string
	Bytes    int64
}

// KeysMRU lists the live entries, most recently used first — a draining
// node hands the head of it to the router as its warm-state list. Right
// after Open the order is blob write order, newest first.
func (s *Store) KeysMRU() []KeyInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]KeyInfo, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, KeyInfo{ImageKey: e.imageKey, Variant: e.variant, ETag: e.etag, Bytes: e.bytes})
	}
	return out
}

// Close marks the store closed: later Puts are refused and reads stop
// adopting. It writes nothing — every blob was durable when its Put
// returned, and the blobs are all the state there is.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// atomicWriteFile writes data to path via a uniquely named temp file in
// the same directory + fsync + rename, then fsyncs the directory so the
// rename itself is durable. The unique name is what lets two processes
// write the same path at once: each renames its own complete file, and
// the last rename wins whole.
func atomicWriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 would hide the blob from a peer under another uid
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
