package dataset

// This file implements the collection write-ahead journal: an append-only
// log of completed per-domain and per-IP observations that makes a
// crashed collection run resumable. At corpus scale a collection run is
// hours of wall clock (the paper's OpenINTEL/Censys sources are built
// around durable snapshots for the same reason), so losing a run to a
// SIGKILL at 99% is unaffordable. The collector appends each record to
// the journal the moment it completes; after a crash, recovery replays
// every intact entry and the collector re-measures only what is missing.
//
// On-disk format:
//
//	offset 0: 8-byte magic "mxwaj01\n"
//	then frames, each:
//	    uint32 LE  payload length
//	    uint32 LE  CRC32C (Castagnoli) of payload
//	    payload    one JSON-encoded jsonLine (the same tagged union
//	               snapshots use: "snapshot" header, "domain", "ip")
//
// The first frame is always the header, binding the journal to one
// (corpus, date) so a resume cannot splice two different runs together.
// Frames are buffered and fsync'd every SyncEvery appends (a sync
// point); a crash loses at most the unsynced tail. Recovery stops
// cleanly at the first torn or corrupt frame — everything before it is
// trusted (CRC-verified), everything after it is discarded by
// truncating the file back to the valid prefix before appending again.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"sync"
)

const (
	journalMagic    = "mxwaj01\n"
	frameHeaderSize = 8 // uint32 length + uint32 CRC32C
	// maxFramePayload bounds one frame, matching the snapshot reader's
	// maximum line. A torn length field cannot make recovery allocate
	// gigabytes.
	maxFramePayload = 16 << 20
	// DefaultSyncEvery is the default sync-point interval: the journal
	// fsyncs after this many appended records.
	DefaultSyncEvery = 64
)

// ErrNotJournal reports a file that does not start with the journal
// magic (for example a snapshot passed to RecoverJournal by mistake).
var ErrNotJournal = errors.New("dataset: not a journal file")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is an open write-ahead journal. Appends are safe for
// concurrent use; a collection lane serializes its own anyway.
type Journal struct {
	// SyncEvery is the sync-point interval in records (default
	// DefaultSyncEvery; negative disables periodic sync — Close still
	// syncs). Set before the first append.
	SyncEvery int

	mu        sync.Mutex
	f         *os.File
	bw        *bufio.Writer
	sinceSync int
	closed    bool
}

func newJournal(f *os.File) *Journal {
	return &Journal{f: f, bw: bufio.NewWriterSize(f, 1<<16)}
}

// CreateJournal starts a fresh journal at path for one (corpus, date)
// collection run: magic, then a synced header frame. It refuses to
// overwrite an existing file — a leftover journal means a previous run
// did not commit, and clobbering it would destroy the resumable state.
func CreateJournal(path, date, corpus string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("dataset: journal %s already exists; resume it or remove it", path)
		}
		return nil, err
	}
	j := newJournal(f)
	if err := j.start(date, corpus); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// start writes the magic and header frame and forces them to disk.
func (j *Journal) start(date, corpus string) error {
	if _, err := j.bw.WriteString(journalMagic); err != nil {
		return err
	}
	if err := j.append(jsonLine{Kind: "snapshot", Header: &snapshotHeader{Date: date, Corpus: corpus}}); err != nil {
		return err
	}
	return j.Sync()
}

// ResumeJournal reopens the journal at path for the given run: it
// recovers every intact entry, truncates the torn tail (if any) so new
// frames append after the last good one, and returns the recovery for
// the collector to skip completed work. A missing or empty file starts
// fresh. A journal written for a different (corpus, date) is an error.
func ResumeJournal(path, date, corpus string) (*Journal, *JournalRecovery, error) {
	rec, err := RecoverJournal(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		j, err := CreateJournal(path, date, corpus)
		if err != nil {
			return nil, nil, err
		}
		return j, &JournalRecovery{Date: date, Corpus: corpus, Seen: make(map[string]bool)}, nil
	case err != nil:
		return nil, nil, err
	}
	if rec.Snapshot != nil && (rec.Date != date || rec.Corpus != corpus) {
		return nil, nil, fmt.Errorf("dataset: journal %s holds corpus %s at %s, not %s at %s",
			path, rec.Corpus, rec.Date, corpus, date)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, nil, err
	}
	// Discard the torn tail: appending after garbage would hide every
	// later frame from the next recovery.
	if err := f.Truncate(rec.ValidBytes); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(rec.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := newJournal(f)
	if rec.ValidBytes == 0 {
		// Empty file: a crash before the first sync point left nothing.
		if err := j.start(date, corpus); err != nil {
			f.Close()
			return nil, nil, err
		}
		rec.Date, rec.Corpus = date, corpus
		return j, rec, nil
	}
	if rec.Snapshot == nil {
		// Magic survived but the header frame did not; rewrite it.
		if err := j.append(jsonLine{Kind: "snapshot", Header: &snapshotHeader{Date: date, Corpus: corpus}}); err != nil {
			f.Close()
			return nil, nil, err
		}
		rec.Date, rec.Corpus = date, corpus
	}
	// Persist the truncation point before trusting new appends.
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, rec, nil
}

// AddDomain journals one completed domain record.
func (j *Journal) AddDomain(d *DomainRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.append(jsonLine{Kind: "domain", Domain: d})
}

// AddIP journals one completed IP observation.
func (j *Journal) AddIP(info *IPInfo) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.append(jsonLine{Kind: "ip", IP: info})
}

// append frames and buffers one entry, fsyncing at sync points. Callers
// hold j.mu (or are single-threaded setup paths).
func (j *Journal) append(line jsonLine) error {
	if j.closed {
		return errors.New("dataset: journal closed")
	}
	payload, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("dataset: journal entry of %d bytes exceeds frame limit", len(payload))
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := j.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := j.bw.Write(payload); err != nil {
		return err
	}
	j.sinceSync++
	every := j.SyncEvery
	if every == 0 {
		every = DefaultSyncEvery
	}
	if every > 0 && j.sinceSync >= every {
		return j.syncLocked()
	}
	return nil
}

// Sync flushes buffered frames and forces them to stable storage — a
// sync point: everything appended so far survives a crash.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if err := j.bw.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.sinceSync = 0
	return nil
}

// Close syncs and closes the journal. The file is left in place: the
// caller decides whether the run committed (remove it) or crashed-ish
// (keep it for resume).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.bw.Flush()
	if serr := j.f.Sync(); err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// JournalRecovery is what survived in a journal: the partial snapshot
// assembled from every intact entry plus the bookkeeping a resumed run
// needs.
type JournalRecovery struct {
	// Date and Corpus are the run identity from the header frame.
	Date, Corpus string
	// Snapshot holds the recovered records (nil when not even the
	// header frame survived). Its Domains and IPs are exactly the
	// journaled ones; duplicates resolve last-write-wins.
	Snapshot *Snapshot
	// Seen maps each domain with an intact journaled record to true —
	// the set Collector.Seen and FleetConfig.Seen consume.
	Seen map[string]bool
	// Entries counts intact record frames (domains + IPs, excluding the
	// header).
	Entries int
	// ValidBytes is the length of the trusted prefix: magic plus every
	// intact frame. Resume truncates the file to this length.
	ValidBytes int64
	// TotalBytes is the file size at recovery time.
	TotalBytes int64
	// Truncated reports that a torn or corrupt tail was found (and will
	// be discarded on resume).
	Truncated bool
	// Reason describes why recovery stopped before the end of the file.
	Reason string
}

// RecoverJournal reads every intact entry from the journal at path,
// stopping cleanly at the first torn or corrupt frame instead of
// erroring — a truncated journal is the expected crash artifact, not an
// exceptional condition. A zero-byte file recovers as empty; a file
// without the journal magic returns ErrNotJournal.
func RecoverJournal(path string) (*JournalRecovery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	rec, err := recoverJournal(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// recoverJournal is the reader core, separated from the file so the
// fuzz target can drive it with arbitrary bytes.
func recoverJournal(r io.Reader, total int64) (*JournalRecovery, error) {
	rec := &JournalRecovery{Seen: make(map[string]bool), TotalBytes: total}
	if total == 0 {
		return rec, nil
	}
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != journalMagic {
		return nil, ErrNotJournal
	}
	rec.ValidBytes = int64(len(journalMagic))

	stop := func(format string, args ...any) {
		rec.Reason = fmt.Sprintf(format, args...)
	}
	domainIdx := make(map[string]int)
	hdr := make([]byte, frameHeaderSize)
frames:
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err != io.EOF {
				stop("torn frame header at offset %d", rec.ValidBytes)
			}
			break
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxFramePayload {
			stop("implausible frame length %d at offset %d", length, rec.ValidBytes)
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			stop("torn frame payload at offset %d", rec.ValidBytes)
			break
		}
		if got := crc32.Checksum(payload, crcTable); got != want {
			stop("CRC mismatch at offset %d", rec.ValidBytes)
			break
		}
		var line jsonLine
		if err := json.Unmarshal(payload, &line); err != nil {
			stop("malformed entry at offset %d: %v", rec.ValidBytes, err)
			break
		}
		switch line.Kind {
		case "snapshot":
			if rec.Snapshot != nil || line.Header == nil {
				stop("misplaced header frame at offset %d", rec.ValidBytes)
				break frames
			}
			rec.Date, rec.Corpus = line.Header.Date, line.Header.Corpus
			rec.Snapshot = NewSnapshot(line.Header.Date, line.Header.Corpus)
		case "domain":
			if rec.Snapshot == nil || line.Domain == nil {
				stop("domain entry before header at offset %d", rec.ValidBytes)
				break frames
			}
			// Last-write-wins: a domain re-collected after a resume
			// replaces its earlier journaled record.
			if i, ok := domainIdx[line.Domain.Domain]; ok {
				rec.Snapshot.Domains[i] = *line.Domain
			} else {
				domainIdx[line.Domain.Domain] = len(rec.Snapshot.Domains)
				rec.Snapshot.AddDomain(*line.Domain)
			}
			rec.Seen[line.Domain.Domain] = true
			rec.Entries++
		case "ip":
			if rec.Snapshot == nil || line.IP == nil {
				stop("ip entry before header at offset %d", rec.ValidBytes)
				break frames
			}
			rec.Snapshot.AddIP(*line.IP)
			rec.Entries++
		default:
			stop("unknown entry kind %q at offset %d", line.Kind, rec.ValidBytes)
			break frames
		}
		rec.ValidBytes += frameHeaderSize + int64(length)
	}
	rec.Truncated = rec.ValidBytes < total
	return rec, nil
}
