package dataset

import (
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeSampleJournal journals the sample snapshot's records and returns
// the path.
func writeSampleJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.waj")
	j, err := CreateJournal(path, "2021-06", "alexa")
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot()
	for i := range s.Domains {
		if err := j.AddDomain(&s.Domains[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"172.217.0.26", "172.217.0.27"} {
		info := s.IPs[key]
		if err := j.AddIP(&info); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalRoundTrip(t *testing.T) {
	path := writeSampleJournal(t)
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated {
		t.Errorf("clean journal reported truncated: %s", rec.Reason)
	}
	if rec.Date != "2021-06" || rec.Corpus != "alexa" {
		t.Errorf("header = %s/%s", rec.Corpus, rec.Date)
	}
	if rec.Entries != 4 {
		t.Errorf("entries = %d, want 4", rec.Entries)
	}
	want := sampleSnapshot()
	if !reflect.DeepEqual(rec.Snapshot.Domains, want.Domains) {
		t.Errorf("domains differ after recovery")
	}
	if !reflect.DeepEqual(rec.Snapshot.IPs, want.IPs) {
		t.Errorf("ips differ after recovery")
	}
	if !rec.Seen["netflix.example"] || !rec.Seen["noip.example"] || len(rec.Seen) != 2 {
		t.Errorf("seen = %v", rec.Seen)
	}
	if fi, _ := os.Stat(path); rec.ValidBytes != fi.Size() {
		t.Errorf("ValidBytes = %d, file is %d", rec.ValidBytes, fi.Size())
	}
}

func TestJournalEmptyVariants(t *testing.T) {
	dir := t.TempDir()

	// Header-only journal: nothing collected yet, nothing torn.
	path := filepath.Join(dir, "header-only.waj")
	j, err := CreateJournal(path, "2021-06", "com")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Entries != 0 || rec.Truncated || rec.Snapshot == nil || len(rec.Snapshot.Domains) != 0 {
		t.Errorf("header-only recovery = %+v", rec)
	}

	// Zero-byte file: recovers as empty, and ResumeJournal restarts it.
	empty := filepath.Join(dir, "empty.waj")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = RecoverJournal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Entries != 0 || rec.Snapshot != nil || rec.Truncated {
		t.Errorf("zero-byte recovery = %+v", rec)
	}
	j2, rec2, err := ResumeJournal(empty, "2021-06", "com")
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if rec2.Entries != 0 {
		t.Errorf("resume of empty file recovered %d entries", rec2.Entries)
	}
	if rec3, err := RecoverJournal(empty); err != nil || rec3.Snapshot == nil {
		t.Errorf("restarted empty journal not recoverable: %v %+v", err, rec3)
	}

	// Magic-only file (crash between magic and header sync).
	magicOnly := filepath.Join(dir, "magic-only.waj")
	if err := os.WriteFile(magicOnly, []byte(journalMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	j3, rec4, err := ResumeJournal(magicOnly, "2021-06", "com")
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if rec4.Entries != 0 || rec4.Date != "2021-06" {
		t.Errorf("magic-only resume = %+v", rec4)
	}
	if rec5, err := RecoverJournal(magicOnly); err != nil || rec5.Snapshot == nil || rec5.Truncated {
		t.Errorf("header not rewritten after magic-only resume: %v %+v", err, rec5)
	}

	// Missing file: ResumeJournal starts fresh.
	missing := filepath.Join(dir, "missing.waj")
	j4, rec6, err := ResumeJournal(missing, "2021-06", "com")
	if err != nil {
		t.Fatal(err)
	}
	if err := j4.Close(); err != nil {
		t.Fatal(err)
	}
	if rec6.Entries != 0 || len(rec6.Seen) != 0 {
		t.Errorf("missing-file resume = %+v", rec6)
	}
}

func TestJournalTornFinalFrame(t *testing.T) {
	path := writeSampleJournal(t)
	full, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: cut 3 bytes off the end.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated {
		t.Fatal("torn journal not reported truncated")
	}
	if rec.Entries != full.Entries-1 {
		t.Errorf("entries = %d, want %d (last frame dropped)", rec.Entries, full.Entries-1)
	}
	if !strings.Contains(rec.Reason, "torn frame") {
		t.Errorf("reason = %q", rec.Reason)
	}

	// Resume truncates the tear and appends cleanly after it.
	j, rec2, err := ResumeJournal(path, "2021-06", "alexa")
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Entries != rec.Entries {
		t.Errorf("resume recovered %d entries, want %d", rec2.Entries, rec.Entries)
	}
	lost := sampleSnapshot().IPs["172.217.0.27"]
	if err := j.AddIP(&lost); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec3, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Truncated || rec3.Entries != full.Entries {
		t.Errorf("after resume+append: truncated=%v entries=%d, want clean %d",
			rec3.Truncated, rec3.Entries, full.Entries)
	}
	if !reflect.DeepEqual(rec3.Snapshot.IPs, sampleSnapshot().IPs) {
		t.Error("re-journaled IP record differs")
	}
}

func TestJournalCorruptCRCMidFile(t *testing.T) {
	path := writeSampleJournal(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the second frame (after magic + header frame) and flip a
	// payload byte: recovery must keep the header, drop everything from
	// the corrupt frame on.
	off := int64(len(journalMagic))
	frame0 := binary.LittleEndian.Uint32(raw[off : off+4])
	second := off + frameHeaderSize + int64(frame0)
	raw[second+frameHeaderSize+5] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || !strings.Contains(rec.Reason, "CRC mismatch") {
		t.Errorf("truncated=%v reason=%q, want CRC mismatch", rec.Truncated, rec.Reason)
	}
	if rec.Entries != 0 || rec.Snapshot == nil {
		t.Errorf("entries=%d snapshot=%v, want 0 entries with header intact", rec.Entries, rec.Snapshot != nil)
	}
	if rec.ValidBytes != second {
		t.Errorf("ValidBytes = %d, want %d (end of header frame)", rec.ValidBytes, second)
	}
}

func TestJournalDuplicateDomainLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.waj")
	j, err := CreateJournal(path, "2021-06", "alexa")
	if err != nil {
		t.Fatal(err)
	}
	first := DomainRecord{Domain: "dup.example", Rank: 1,
		MX: []MXObs{{Preference: 10, Exchange: "old.example"}}}
	second := DomainRecord{Domain: "dup.example", Rank: 1,
		MX: []MXObs{{Preference: 10, Exchange: "new.example",
			Addrs: []netip.Addr{netip.MustParseAddr("192.0.2.1")}}}}
	other := DomainRecord{Domain: "other.example"}
	for _, d := range []DomainRecord{first, other, second} {
		d := d
		if err := j.AddDomain(&d); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Snapshot.Domains) != 2 {
		t.Fatalf("domains = %d, want 2 (duplicate collapsed)", len(rec.Snapshot.Domains))
	}
	got := rec.Snapshot.Domains[0]
	if got.Domain != "dup.example" || got.MX[0].Exchange != "new.example" {
		t.Errorf("duplicate resolution kept %+v, want the later record", got)
	}
	if !rec.Seen["dup.example"] || !rec.Seen["other.example"] {
		t.Errorf("seen = %v", rec.Seen)
	}
}

// keylessJournal journals one good domain, then the frame add writes,
// then another good domain, and returns the file's bytes.
func keylessJournal(tb testing.TB, add func(*Journal) error) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "keyless.waj")
	j, err := CreateJournal(path, "2021-06", "alexa")
	if err != nil {
		tb.Fatal(err)
	}
	good, later := DomainRecord{Domain: "good.example"}, DomainRecord{Domain: "later.example"}
	for _, err := range []error{j.AddDomain(&good), add(j), j.AddDomain(&later), j.Close()} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// keylessFrames write the two records every snapshot reader rejects: a
// domain without a name and an ip without an address.
var keylessFrames = []struct {
	name, reason string
	add          func(*Journal) error
}{
	{"domain without a name", "domain line without a name", func(j *Journal) error { return j.AddDomain(&DomainRecord{}) }},
	{"ip without an address", "ip line without an address", func(j *Journal) error { return j.AddIP(&IPInfo{}) }},
}

// TestJournalRecoveryStopsAtKeylessRecord: recovery trusts no frame a
// snapshot reader would reject. It stops at a keyless record with the
// snapshot rules' words, keeps what came before, and the snapshot
// written from it reads back.
func TestJournalRecoveryStopsAtKeylessRecord(t *testing.T) {
	for _, tc := range keylessFrames {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.waj")
			if err := os.WriteFile(path, keylessJournal(t, tc.add), 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := RecoverJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Truncated || !strings.HasPrefix(rec.Reason, tc.reason+" at offset ") {
				t.Errorf("truncated=%v reason=%q, want %q", rec.Truncated, rec.Reason, tc.reason)
			}
			if rec.Entries != 1 || !rec.Seen["good.example"] || rec.Seen["later.example"] {
				t.Errorf("recovered %d entries, seen %v, want only good.example", rec.Entries, rec.Seen)
			}
			snap := filepath.Join(t.TempDir(), "snap.jsonl")
			if err := WriteFile(snap, rec.Snapshot); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadFile(snap); err != nil {
				t.Errorf("snapshot written from the recovery: %v", err)
			}
		})
	}
}

func TestJournalGuards(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.waj")
	j, err := CreateJournal(path, "2021-06", "alexa")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A second CreateJournal must refuse to clobber resumable state.
	if _, err := CreateJournal(path, "2021-06", "alexa"); err == nil {
		t.Error("CreateJournal clobbered an existing journal")
	}

	// Resuming under a different run identity is an error.
	if _, _, err := ResumeJournal(path, "2021-12", "alexa"); err == nil {
		t.Error("resume accepted a journal from a different date")
	}
	if _, _, err := ResumeJournal(path, "2021-06", "com"); err == nil {
		t.Error("resume accepted a journal from a different corpus")
	}

	// A non-journal file is rejected, not misparsed.
	snap := filepath.Join(dir, "snap.jsonl")
	if err := WriteFile(snap, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverJournal(snap); err == nil {
		t.Error("RecoverJournal accepted a snapshot file")
	}

	// Appending to a closed journal fails.
	d := DomainRecord{Domain: "late.example"}
	if err := j.AddDomain(&d); err == nil {
		t.Error("append to closed journal succeeded")
	}
}

func TestJournalSyncEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.waj")
	j, err := CreateJournal(path, "2021-06", "alexa")
	if err != nil {
		t.Fatal(err)
	}
	j.SyncEvery = 2
	// Three appends: the first two hit a sync point and must be on disk
	// even though the journal is never closed (simulating SIGKILL).
	for i, name := range []string{"a.example", "b.example", "c.example"} {
		d := DomainRecord{Domain: name, Rank: i + 1}
		if err := j.AddDomain(&d); err != nil {
			t.Fatal(err)
		}
	}
	// Do NOT close: read the file as-is.
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Entries < 2 {
		t.Errorf("entries on disk = %d, want >= 2 (sync point at 2)", rec.Entries)
	}
	if !rec.Seen["a.example"] || !rec.Seen["b.example"] {
		t.Errorf("synced entries missing: %v", rec.Seen)
	}
	j.Close()
}
