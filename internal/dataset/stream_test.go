package dataset

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// ownedCopy is a streamed record the caller may keep: its MX and Addrs
// arrays are the walk's, refilled in place.
func ownedCopy(d *DomainRecord) DomainRecord {
	kept := *d
	kept.MX = append([]MXObs(nil), d.MX...)
	for i := range kept.MX {
		kept.MX[i].Addrs = append([]netip.Addr(nil), d.MX[i].Addrs...)
	}
	return kept
}

// TestStreamPastInternBound holds a walk whose distinct tails outnumber
// its table of decoded tails (maxTails) to the records the file says:
// the popular MX lists, entered early, recur on every third domain;
// every other domain has two exchanges of its own, so the table fills,
// and tails past the bound are decoded line by line, exchange names
// coming from the slot's last use or a fresh allocation.
func TestStreamPastInternBound(t *testing.T) {
	s := NewSnapshot("2021-06", "alexa")
	n := 3 * maxTails
	for i := 0; i < n; i++ {
		d := DomainRecord{Domain: fmt.Sprintf("d%06d.example", i)}
		if i%3 == 0 {
			pop := fmt.Sprintf("mx.pop%d.example", i%5)
			d.MX = []MXObs{{Preference: 10, Exchange: pop, Addrs: []netip.Addr{netip.AddrFrom4([4]byte{10, 0, byte(i % 5), 1})}}}
		} else {
			d.MX = []MXObs{
				{Preference: 10, Exchange: fmt.Sprintf("mx1.d%06d.example", i)},
				{Preference: 20, Exchange: fmt.Sprintf("mx2.d%06d.example", i), Dangling: true},
			}
		}
		s.AddDomain(d)
	}
	s.SortDomains()
	path := filepath.Join(t.TempDir(), "many.jsonl.gz")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []DomainRecord
	err = st.ForEach(func(d *DomainRecord) error {
		streamed = append(streamed, ownedCopy(d))
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, read.Domains) {
		t.Error("streamed records differ from ReadFile's")
	}
	if !reflect.DeepEqual(read.Domains, s.Domains) {
		t.Error("ReadFile's records differ from the snapshot written")
	}
}

// TestStreamPassOverReplacedFile pins a Stream to the file OpenStream
// read: a pass that finds another file at the path, renamed over it or
// rewritten in place, fails naming the path and calls back nothing.
func TestStreamPassOverReplacedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.jsonl")
	other := filepath.Join(dir, "other.jsonl")
	for _, c := range []struct {
		name    string
		replace func() error
	}{
		{"renamed over", func() error {
			if err := WriteFile(other, buildSnapshot(20)); err != nil {
				return err
			}
			return os.Rename(other, path)
		}},
		{"rewritten in place", func() error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		}},
	} {
		if err := WriteFile(path, buildSnapshot(10)); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.ForEach(func(*DomainRecord) error { return nil }, nil); err != nil {
			t.Fatalf("%s: pass over the file as opened: %v", c.name, err)
		}
		if err := c.replace(); err != nil {
			t.Fatal(err)
		}
		calls := 0
		err = st.ForEach(func(*DomainRecord) error { calls++; return nil }, func(*IPInfo) error { calls++; return nil })
		if !errors.Is(err, errReplaced) || !strings.Contains(err.Error(), path) || calls != 0 {
			t.Errorf("%s: pass = %v after %d callbacks, want %v naming %s and none", c.name, err, calls, errReplaced, path)
		}
	}
}
