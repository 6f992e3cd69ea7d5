package dataset

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"
)

// TestWriteToAllocs guards the pooling and the append encoders:
// steady-state serialization re-allocates neither the bufio writer nor
// anything per record (lines are appended into the writer's own buffer),
// so what is left is a handful of objects per call: the header's
// encoder and the sorted IP keys.
func TestWriteToAllocs(t *testing.T) {
	s := buildSnapshot(200)
	// Warm the pools.
	if _, err := s.WriteTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := float64(len(s.Domains) + len(s.IPs) + 1)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := allocs / lines; perLine > 0.1 {
		t.Errorf("WriteTo allocates %.2f objects/line (%.0f total for %.0f lines); a per-record allocation is back",
			perLine, allocs, lines)
	}
}

// TestReadAllocs guards the reader side: the scanner's line buffer must
// come from the pool, so per-call allocation is dominated by the decoded
// records themselves, not setup buffers.
func TestReadAllocs(t *testing.T) {
	var buf bytes.Buffer
	s := buildSnapshot(200)
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	lines := float64(len(s.Domains) + len(s.IPs) + 1)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	// Each decoded record legitimately allocates what the snapshot keeps
	// (two strings, the MX slice and its Addrs: 4.1 per line here); the
	// guard catches encoding/json or a fixed buffer sneaking back in.
	if perLine := allocs / lines; perLine > 5 {
		t.Errorf("Read allocates %.1f objects/line; the canonical lines of WriteTo are not decoded by the line codec", perLine)
	}
}

// TestStreamForEachAllocs pins a streaming pass: records are refilled in
// place, so a domain line costs its two strings (name and exchange) and
// nothing else. This is the number the traced benchmark sums up as
// core.allocs_per_domain.
func TestStreamForEachAllocs(t *testing.T) {
	s := buildSnapshot(200)
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := float64(len(s.Domains) + len(s.IPs) + 1)
	var domains, ips int
	allocs := testing.AllocsPerRun(10, func() {
		domains, ips = 0, 0
		err = st.ForEach(
			func(*DomainRecord) error { domains++; return nil },
			func(*IPInfo) error { ips++; return nil },
		)
	})
	if err != nil || domains != len(s.Domains) || ips != len(s.IPs) {
		t.Fatalf("pass saw %d domains, %d ips, error %v", domains, ips, err)
	}
	if perLine := allocs / lines; perLine > 2.5 {
		t.Errorf("ForEach allocates %.1f objects/line (%.0f total for %.0f lines), want 2.1", perLine, allocs, lines)
	}
}

// TestLongLineRead exercises the raised line limit: a record far past
// the old 16MiB bound must read back intact.
func TestLongLineRead(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a ~20MiB record")
	}
	s := NewSnapshot("2021-06", "alexa")
	big := make([]byte, 20<<20)
	for i := range big {
		big[i] = 'a' + byte(i%26)
	}
	s.AddDomain(DomainRecord{
		Domain: "bigspf.example",
		MX:     []MXObs{{Preference: 10, Exchange: "mx.example"}},
		SPF:    "v=spf1 " + string(big),
	})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Domains) != 1 || len(got.Domains[0].SPF) != 7+len(big) {
		t.Fatalf("long SPF record did not round-trip")
	}
	// fsck reads lines the way the readers do: what loads is not damage.
	path := filepath.Join(t.TempDir(), "big.jsonl")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	if r, err := Fsck(path); err != nil || !r.Clean {
		t.Errorf("fsck of a snapshot that reads back = %+v, %v, want clean", r, err)
	}
}
