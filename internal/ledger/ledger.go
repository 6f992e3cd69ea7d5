// Package ledger ties the exact-counter ledgers committed under
// results/ to the tests that produce them. A test hands Check the value
// it measured — or CheckPhase its one element of a ledger that is an
// array of phases — and the helper compares the JSON encoding with the
// committed file byte for byte. With -update it rewrites the file
// instead: go test <owning packages> -update regenerates every ledger,
// and is a no-op on a clean tree.
package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the ledgers under results/ instead of comparing against them")

// Check compares v with the whole of results/<name>.
func Check(t testing.TB, name string, v any) {
	t.Helper()
	path, want := read(t, name)
	compare(t, path, want, encode(t, v))
}

// CheckPhase compares v with the element of the array in results/<name>
// that carries the same "phase" value. Only that element is rewritten
// under -update, so regenerating one phase cannot truncate the file.
func CheckPhase(t testing.TB, name string, v any) {
	t.Helper()
	path, want := read(t, name)
	var phases []json.RawMessage
	if err := json.Unmarshal(want, &phases); err != nil && len(want) > 0 {
		t.Fatalf("%s: %v", path, err)
	}
	got := json.RawMessage(encode(t, v))
	phase := phaseOf(got)
	i := slices.IndexFunc(phases, func(p json.RawMessage) bool { return phaseOf(p) == phase })
	switch {
	case i >= 0:
		phases[i] = got
	case *update:
		phases = append(phases, got)
	default:
		t.Fatalf("%s has no phase %q", path, phase)
	}
	compare(t, path, want, encode(t, phases))
}

func phaseOf(raw json.RawMessage) string {
	var p struct {
		Phase string `json:"phase"`
	}
	json.Unmarshal(raw, &p) // a malformed element names no phase
	return p.Phase
}

// encode is the ledgers' one format: two-space indent, trailing newline.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// read locates results/ beside the go.mod above the test's working
// directory and returns the ledger's path and committed bytes (none for
// a ledger -update is about to create).
func read(t testing.TB, name string) (string, []byte) {
	t.Helper()
	dir, err := os.Getwd()
	for ; err == nil; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		if dir == filepath.Dir(dir) {
			err = errors.New("no go.mod above the working directory")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results", name)
	want, err := os.ReadFile(path)
	if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
		t.Fatalf("%v (go test -update creates it)", err)
	}
	return path, want
}

func compare(t testing.TB, path string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	i := 0
	for i < len(wl) && i < len(gl) && bytes.Equal(wl[i], gl[i]) {
		i++
	}
	line := func(ls [][]byte) []byte { return append(ls, nil)[i] }
	t.Errorf("%s:%d: the committed ledger differs from this run (go test -update rewrites it)\ncommitted: %s\nthis run:  %s",
		path, i+1, line(wl), line(gl))
}
