package cachestore

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// FsckReport summarizes what the boot-time verification pass found.
type FsckReport struct {
	// Verified is how many blobs verified clean and were indexed.
	Verified int `json:"verified"`
	// Quarantined is how many blobs failed verification and were moved
	// to quarantine/.
	Quarantined int `json:"quarantined,omitempty"`
	// TmpCleaned is how many abandoned *.tmp files were removed.
	TmpCleaned int `json:"tmp_cleaned,omitempty"`
}

func (r FsckReport) String() string {
	return fmt.Sprintf("fsck: %d verified, %d quarantined, %d tmp cleaned", r.Verified, r.Quarantined, r.TmpCleaned)
}

// tmpGrace is how recently a *.tmp file must have been modified for the
// boot sweep to leave it alone: it may be a write in flight in another
// process sharing the directory, not a crash's leftover.
const tmpGrace = time.Minute

// sweepTemps deletes the abandoned *.tmp files a crash mid-write left in
// dir and returns how many it removed.
func sweepTemps(dir string) int {
	des, _ := os.ReadDir(dir)
	n := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".tmp") {
			continue
		}
		if fi, err := de.Info(); err != nil || time.Since(fi.ModTime()) < tmpGrace {
			continue
		}
		if os.Remove(filepath.Join(dir, de.Name())) == nil {
			n++
		}
	}
	return n
}

// fsck builds the index from the blobs on disk — the only durable state
// there is. It runs inside Open, under s.mu, before the store is shared.
// One pass: sweep abandoned temp files, read and verify every
// blob (a blob that fails its own CRC, or sits under a name its
// self-described identity does not hash to, is quarantined), order the
// survivors by creation time into the LRU, and evict down to the byte
// budget so a restart with a smaller -cache-max-bytes converges before
// serving begins. A blob larger than the whole budget stays on disk,
// unindexed.
func (s *Store) fsck() (FsckReport, error) {
	var rep FsckReport
	blobsDir := filepath.Join(s.cfg.Dir, blobsDirName)
	rep.TmpCleaned = sweepTemps(s.cfg.Dir) + sweepTemps(blobsDir)
	des, err := os.ReadDir(blobsDir)
	if err != nil {
		return rep, fmt.Errorf("cachestore: reading %s: %w", blobsDir, err)
	}
	type found struct {
		e         *entry
		name      string
		createdNS int64
	}
	var live []found
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || strings.HasSuffix(name, ".tmp") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(blobsDir, name))
		var meta blobMeta
		var etag string
		if err == nil {
			meta, etag, err = verifyBlobHeader(data)
		}
		if err == nil && blobName(meta.ImageKey, meta.Variant) != name {
			err = fmt.Errorf("cachestore: blob %s self-describes as %s", name, blobName(meta.ImageKey, meta.Variant))
		}
		if err != nil {
			s.quarantineBlob(name)
			rep.Quarantined++
			continue
		}
		rep.Verified++
		live = append(live, found{
			e:         &entry{imageKey: meta.ImageKey, variant: meta.Variant, bytes: int64(len(data)), etag: etag},
			name:      name,
			createdNS: meta.CreatedNS,
		})
	}
	// Oldest first, so the LRU front ends up holding the most recently
	// written entries; the file name breaks ties deterministically.
	slices.SortFunc(live, func(a, b found) int {
		return cmp.Or(cmp.Compare(a.createdNS, b.createdNS), cmp.Compare(a.name, b.name))
	})
	for _, f := range live {
		s.index.Put(entryKey(f.e.imageKey, f.e.variant), f.e, f.e.bytes)
	}
	return rep, nil
}
