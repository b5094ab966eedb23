package cachestore

import (
	"os"
	"path/filepath"
	"testing"
)

// copyBlob copies one blob file between two store directories.
func copyBlob(t *testing.T, srcDir, dstDir, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(srcDir, blobsDirName, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dstDir, blobsDirName, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAdoptsForeignBlob: a blob written by a peer sharing the
// cache directory after this store's boot fsck — so absent from the
// index — is found on disk by Get, verified, adopted into the index,
// and served; this is what lets a replica answer a dead peer's keys.
func TestLookupAdoptsForeignBlob(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, _, err := Open(Config{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnap(9)
	wantTag, err := a.Put("imgX", "d=2.5", snap)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, _, err := Open(Config{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Contains("imgX", "d=2.5") {
		t.Fatal("fresh store claims to contain the foreign key")
	}
	if _, _, ok := b.Get("imgX", "d=2.5"); ok {
		t.Fatal("Get hit before the blob exists on disk")
	}

	copyBlob(t, dirA, dirB, blobName("imgX", "d=2.5"))

	// The index does not know the blob; Get adopts and serves it.
	got, tag, ok := b.Get("imgX", "d=2.5")
	if !ok {
		t.Fatal("Get missed the on-disk blob")
	}
	if tag != wantTag {
		t.Fatalf("adopted etag %q, want %q", tag, wantTag)
	}
	if !snapsEqual(got, snap) {
		t.Fatal("adopted snapshot differs from the written one")
	}
	st := b.Stats()
	if st.Adopted != 1 {
		t.Fatalf("adopted = %d, want 1", st.Adopted)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d after adoption, want 1 (blob not indexed)", st.Entries)
	}
	// Adopted means indexed: the next read is a plain hit, no re-adoption.
	if !b.Contains("imgX", "d=2.5") {
		t.Fatal("adoption did not index the entry")
	}
	if _, _, ok := b.Get("imgX", "d=2.5"); !ok {
		t.Fatal("Get misses the adopted entry")
	}
	if st := b.Stats(); st.Adopted != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("repeat read re-adopted or miscounted: %+v, want adopted 1, hits 2, misses 1", st)
	}

	// The adopted entry survives a restart: its blob is in blobs/.
	b.Close()
	b2, _, err := Open(Config{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if !b2.Contains("imgX", "d=2.5") {
		t.Fatal("adopted entry lost across restart")
	}
}

// TestLookupQuarantinesCorruptForeignBlob: garbage at the key's
// deterministic blob path is quarantined, not served and not adopted.
func TestLookupQuarantinesCorruptForeignBlob(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	name := blobName("imgY", "")
	if err := os.WriteFile(filepath.Join(dir, blobsDirName, name), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("imgY", ""); ok {
		t.Fatal("Get served a corrupt blob")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Adopted != 0 || st.Misses != 1 {
		t.Fatalf("corrupt=%d adopted=%d misses=%d, want 1/0/1", st.Corrupt, st.Adopted, st.Misses)
	}
	if _, err := os.Stat(filepath.Join(dir, blobsDirName, name)); !os.IsNotExist(err) {
		t.Fatal("corrupt blob still in blobs/")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineName, name)); err != nil {
		t.Fatalf("corrupt blob not quarantined: %v", err)
	}
}

// TestLookupRejectsMisplacedBlob: a valid blob sitting at the wrong
// key's path (a rename, a collision, an attack) decodes fine but its
// embedded identity disagrees — it must be quarantined, never served
// under the wrong key.
func TestLookupRejectsMisplacedBlob(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, _, err := Open(Config{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Put("imgReal", "", testSnap(5)); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, _, err := Open(Config{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Plant imgReal's bytes at imgOther's deterministic path.
	data, err := os.ReadFile(filepath.Join(dirA, blobsDirName, blobName("imgReal", "")))
	if err != nil {
		t.Fatal(err)
	}
	misplaced := blobName("imgOther", "")
	if err := os.WriteFile(filepath.Join(dirB, blobsDirName, misplaced), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := b.Get("imgOther", ""); ok {
		t.Fatal("Get served a blob whose embedded identity disagrees with the key")
	}
	if st := b.Stats(); st.Corrupt != 1 || st.Adopted != 0 {
		t.Fatalf("corrupt=%d adopted=%d, want 1/0", st.Corrupt, st.Adopted)
	}
	if _, err := os.Stat(filepath.Join(dirB, quarantineName, misplaced)); err != nil {
		t.Fatalf("misplaced blob not quarantined: %v", err)
	}
}
