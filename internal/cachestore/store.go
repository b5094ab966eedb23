package cachestore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lru"
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
	// MaxBytes is the LRU byte budget across the live entries' blobs.
	// 0 selects the default of 1 GiB.
	MaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 30
	}
	return c
}

// Stats is a snapshot of the store's counters (the serving layer
// exposes them as pi2md_cache_* / pi2md_fsck_* metrics).
type Stats struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Writes          int64 `json:"writes"`
	WriteErrors     int64 `json:"write_errors"`
	Evictions       int64 `json:"evictions"`
	Corrupt         int64 `json:"corrupt"`
	Adopted         int64 `json:"adopted,omitempty"`
	FsckQuarantined int64 `json:"fsck_quarantined"`
	Bytes           int64 `json:"bytes"`
	Entries         int   `json:"entries"`
}

// entry is one live index entry: the blob at blobName(imageKey, variant).
type entry struct {
	imageKey string
	variant  string
	bytes    int64
	etag     string
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

	mu     sync.Mutex
	index  lru.Cache[string, *entry] // by entryKey, bounded by MaxBytes
	tombs  []string                  // evicted blobs renamed aside, unlinked by unlock
	closed bool

	hits, misses, writes, writeErrors, evictions, corrupt atomic.Int64
	adopted                                               atomic.Int64
	fsckQuarantined                                       int64 // set once by Open
}

// Open opens (or creates) the store at cfg.Dir and runs the boot-time
// fsck pass described in the package comment. The returned report says
// what fsck found; Open only fails for unrecoverable environment
// problems (the directory cannot be created or read). It writes nothing
// but the directories themselves.
func Open(cfg Config) (*Store, FsckReport, error) {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg}
	s.index = lru.Cache[string, *entry]{MaxBytes: cfg.MaxBytes, OnEvict: s.evicted}
	for _, d := range []string{cfg.Dir, filepath.Join(cfg.Dir, blobsDirName), filepath.Join(cfg.Dir, quarantineName)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, FsckReport{}, fmt.Errorf("cachestore: creating %s: %w", d, err)
		}
	}
	s.mu.Lock() // fsck's evictions are unlinked when it is released
	rep, err := s.fsck()
	s.unlock()
	if err != nil {
		return nil, rep, err
	}
	s.fsckQuarantined = int64(rep.Quarantined)
	return s, rep, nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Len()
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	bytes := s.index.Bytes()
	n := s.index.Len()
	s.mu.Unlock()
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Writes:          s.writes.Load(),
		WriteErrors:     s.writeErrors.Load(),
		Evictions:       s.evictions.Load(),
		Corrupt:         s.corrupt.Load(),
		Adopted:         s.adopted.Load(),
		FsckQuarantined: s.fsckQuarantined,
		Bytes:           bytes,
		Entries:         n,
	}
}

// ETag answers a lookup from the index alone — no blob I/O. ok is false
// when the pair is not cached. A successful lookup counts as a hit and
// refreshes the entry's recency: the caller is about to answer from it
// — a 304, bytes it already holds for this etag, or a Read.
func (s *Store) ETag(imageKey, variant string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index.Get(entryKey(imageKey, variant))
	if !ok {
		return "", false
	}
	s.hits.Add(1)
	return e.etag, true
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
	e, _ := s.index.Get(k)
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
	defer s.unlock()
	if err != nil {
		// Only if it is still e: a concurrent Put may have replaced it.
		if cur, _ := s.index.Peek(k); e != nil && cur == e {
			s.index.Remove(k)
		}
		s.misses.Add(1)
		return nil, "", false
	}
	// A blob the index does not hold, or holds under another tag, is a
	// peer's: the index takes what is on disk.
	if cur, ok := s.index.Get(k); (!ok || cur.etag != etag) && !s.closed {
		s.adopt(imageKey, variant, int64(len(data)), etag)
	}
	s.hits.Add(hit)
	return snap, etag, true
}

// Put stores a snapshot for (imageKey, variant) as a durable blob and
// returns the etag that identifies the entry for conditional GETs. A
// write error (ENOSPC, EIO, injected) is counted and returned with no
// etag, and the index is left alone: the pair is simply not cached. A
// snapshot over the whole budget is skipped too, without an error; any
// other nil return means the blob is durable.
//
// The first writer of a pair wins. A verified blob already at the
// pair's path — a peer's, in a directory two stores share — is adopted
// instead of written over, and its etag returned; so is one a peer
// publishes while this write is under way, since a blob is published by
// a link, which fails on an existing name. Every store then indexes the
// tag of the bytes on disk. A file at the path that does not verify
// fails the write; the first read of the pair quarantines it.
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
	path := filepath.Join(s.cfg.Dir, blobsDirName, blobName(imageKey, variant))

	var tmp string
	defer func() {
		if tmp != "" {
			os.Remove(tmp) // the blob's second name, once s.mu is released
		}
	}()
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return etag, errors.New("cachestore: store closed")
	}
	if size, tag, ok := verifiedBlob(path, imageKey, variant); ok {
		return s.adopt(imageKey, variant, size, tag), nil
	}
	tmp, err = s.writeBlobFile(path, data)
	if err == nil {
		if err = link(tmp, path); errors.Is(err, fs.ErrExist) {
			if size, tag, ok := verifiedBlob(path, imageKey, variant); ok {
				return s.adopt(imageKey, variant, size, tag), nil
			}
		}
	}
	if err != nil {
		s.writeErrors.Add(1)
		return "", err
	}
	syncDir(filepath.Dir(path))
	e := &entry{imageKey: imageKey, variant: variant, bytes: int64(len(data)), etag: etag}
	s.index.Put(entryKey(imageKey, variant), e, e.bytes)
	s.writes.Add(1)
	return etag, nil
}

// verifiedBlob reads the blob at path and reports its size and etag if
// it verifies as (imageKey, variant)'s.
func verifiedBlob(path, imageKey, variant string) (int64, string, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, "", false
	}
	meta, etag, err := verifyBlobHeader(data)
	if err != nil || meta.ImageKey != imageKey || meta.Variant != variant {
		return 0, "", false
	}
	return int64(len(data)), etag, true
}

// adopt indexes a blob this store did not write, counts it and returns
// its etag. A blob over this store's budget — a peer's with a larger
// one — is not indexed, and an entry under another tag is dropped.
// Caller holds s.mu.
func (s *Store) adopt(imageKey, variant string, size int64, etag string) string {
	k := entryKey(imageKey, variant)
	if s.index.Put(k, &entry{imageKey: imageKey, variant: variant, bytes: size, etag: etag}, size) {
		s.adopted.Add(1)
	} else {
		s.index.Remove(k)
	}
	return etag
}

// writeBlobFile writes one framed blob to a uniquely named temp file
// beside path and fsyncs it; the caller publishes it under path. The
// unique name is what lets two processes write one pair at once. The
// faultinject points simulate the disk failing (CacheWriteFail) or
// lying (CacheTornWrite/CacheBitFlip — the write "succeeds" but the
// blob is corrupt, which the CRC must catch later). Caller holds s.mu.
func (s *Store) writeBlobFile(path string, data []byte) (string, error) {
	if faultinject.Fire(faultinject.CacheWriteFail) {
		return "", fmt.Errorf("cachestore: injected write failure: %w", syscall.EIO)
	}
	if faultinject.Fire(faultinject.CacheTornWrite) {
		data = data[:len(data)/2]
	} else if faultinject.Fire(faultinject.CacheBitFlip) {
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0x40
		data = flipped
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return "", err
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
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// link publishes a written blob under its path; a test replaces it to
// land a peer's write between Put's check and its publish.
var link = os.Link

// unlink deletes an evicted blob's tomb; a test replaces it to hold an
// eviction mid-delete.
var unlink = os.Remove

// evicted is the index's eviction hook: an entry the byte budget forced
// out is counted and its blob renamed to a fresh *.tmp tomb beside it,
// which unlock deletes. Freeing a fsynced inode can take tens of
// milliseconds, renaming to a fresh name microseconds, so only the
// rename holds s.mu; and a Put of the same key that follows it writes a
// blob the deletion cannot reach. A tomb a crash leaves is swept as an
// abandoned write. It runs under s.mu.
func (s *Store) evicted(_ string, e *entry) {
	s.evictions.Add(1)
	blob := filepath.Join(s.cfg.Dir, blobsDirName, blobName(e.imageKey, e.variant))
	tomb := fmt.Sprintf("%s.%016x.tmp", blob, rand.Uint64())
	if os.Rename(blob, tomb) == nil {
		s.tombs = append(s.tombs, tomb)
	}
}

// unlock releases s.mu, then deletes the tombs of the evictions made
// while it was held.
func (s *Store) unlock() {
	tombs := s.tombs
	s.tombs = nil
	s.mu.Unlock()
	for _, tomb := range tombs {
		unlink(tomb)
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
	out := make([]KeyInfo, 0, s.index.Len())
	for _, e := range s.index.All() {
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

// syncDir fsyncs a directory so a just-linked entry survives a crash;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
