package cachestore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The index is persisted in two cooperating files:
//
//   - journal: append-only, one CRC32-guarded record per mutation
//     (put/del). A crash mid-append leaves a torn final line; replay
//     stops there and the surviving prefix is still a valid history.
//   - checkpoint: a full index image (entries in LRU order, oldest
//     first), written atomically whenever the journal grows past
//     journalCompactAfter records, after which the journal restarts
//     empty. Boot = load checkpoint + replay journal on top.
//
// Neither file is trusted: blobs carry their own self-describing
// header and CRC, so when both index files are damaged the index is
// rebuilt from the blobs alone (see fsck.go).

const (
	journalName    = "journal"
	checkpointName = "index.ckpt"
	blobsDirName   = "blobs"
	quarantineName = "quarantine"

	// journalCompactAfter bounds journal growth between checkpoints.
	journalCompactAfter = 512
)

// journalRec is one index mutation.
type journalRec struct {
	Op        string `json:"op"` // "put" or "del"
	ImageKey  string `json:"k"`
	Variant   string `json:"v,omitempty"`
	File      string `json:"f,omitempty"`
	Bytes     int64  `json:"b,omitempty"`
	ETag      string `json:"e,omitempty"`
	CreatedNS int64  `json:"t,omitempty"`
}

// encodeJournalLine frames a record as `<json> <crc32-hex>\n`; the CRC
// covers the JSON bytes, so a torn or bit-flipped line is detected at
// replay.
func encodeJournalLine(rec journalRec) ([]byte, error) {
	j, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := fmt.Sprintf("%s %08x\n", j, crc32.ChecksumIEEE(j))
	return []byte(line), nil
}

// decodeJournalLine parses and verifies one journal line.
func decodeJournalLine(line string) (journalRec, error) {
	var rec journalRec
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return rec, fmt.Errorf("cachestore: journal line has no checksum")
	}
	payload, sum := line[:i], strings.TrimSpace(line[i+1:])
	want, err := strconv.ParseUint(sum, 16, 32)
	if err != nil {
		return rec, fmt.Errorf("cachestore: bad journal checksum %q", sum)
	}
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
		return rec, fmt.Errorf("cachestore: journal line checksum mismatch")
	}
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return rec, fmt.Errorf("cachestore: decoding journal record: %w", err)
	}
	if rec.Op != "put" && rec.Op != "del" {
		return rec, fmt.Errorf("cachestore: unknown journal op %q", rec.Op)
	}
	return rec, nil
}

// replayJournal reads every valid record from the journal, stopping at
// the first damaged line (a torn append from a crash). It returns the
// valid records, how many trailing lines were discarded, and whether
// the journal file was present at all.
func replayJournal(path string) (recs []journalRec, torn int, present bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, true, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		rec, derr := decodeJournalLine(sc.Text())
		if derr != nil {
			// Everything from the first bad line on is untrusted: a torn
			// tail can only be at the end of an append-only file, and a
			// bad line in the middle means later appends raced a corrupt
			// region — either way replay must stop.
			torn = 1
			for sc.Scan() {
				torn++
			}
			return recs, torn, true, nil
		}
		recs = append(recs, rec)
	}
	if serr := sc.Err(); serr != nil {
		return recs, torn, true, nil // unreadable tail behaves like a torn one
	}
	_ = lines
	return recs, torn, true, nil
}

// checkpointDoc is the serialized checkpoint: every live entry in LRU
// order (oldest first), so recency survives a restart.
type checkpointDoc struct {
	Version int          `json:"version"`
	Entries []journalRec `json:"entries"`
}

// writeCheckpoint atomically replaces the checkpoint: temp file, fsync,
// rename — the same discipline as blob writes, so a crash leaves either
// the old checkpoint or the new one, never a hybrid.
func writeCheckpoint(dir string, entries []journalRec) error {
	doc := checkpointDoc{Version: 1, Entries: entries}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, checkpointName), data)
}

// loadCheckpoint reads the checkpoint; ok reports whether a usable one
// was found (a missing file is not damage, a malformed one is).
func loadCheckpoint(dir string) (entries []journalRec, present, ok bool) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if os.IsNotExist(err) {
		return nil, false, false
	}
	if err != nil {
		return nil, true, false
	}
	var doc checkpointDoc
	if err := json.Unmarshal(data, &doc); err != nil || doc.Version != 1 {
		return nil, true, false
	}
	for _, rec := range doc.Entries {
		if rec.Op != "put" || rec.ImageKey == "" || rec.File == "" {
			return nil, true, false
		}
	}
	return doc.Entries, true, true
}

// atomicWriteFile writes data to path via temp file + fsync + rename,
// then fsyncs the parent directory so the rename itself is durable.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
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
