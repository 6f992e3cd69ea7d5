package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// FuzzLookupJSON is differential: the /v1/domain encoder must write
// exactly the bytes json.Marshal writes for the same LookupResponse —
// any bytes in the strings and credit keys, credits of any finite
// magnitude, a nil or an empty credit map.
func FuzzLookupJSON(f *testing.F) {
	type seed struct {
		domain, primary, k1, k2 string
		c1, c2                  float64
		credits                 byte // 0 nil, 1 empty, 2 one key, 3 two keys
		rank                    int
		flags                   byte
	}
	for _, s := range []seed{
		{"one.example", "prov-a.net", "prov-a.net", "prov-b.net", 1, 0.5, 3, 1, 0},
		{"<b>&amp;", "a<b>c&d", "<>&", "\"\\", 0.25, 0.75, 3, 2, 1},
		{"\xff\xfe", "bad\xc3utf8", "\xc3\x28", "\xed\xa0\x80", 1, 1, 3, 0, 2},
		{"line\u2028sep\u2029", "tab\there", "\u2028", "\x00\x1f", 1, 1, 3, -7, 4},
		{"tiny.example", "p", "p", "q", 1e-7, 1e-6, 3, 0, 8},
		{"huge.example", "p", "p", "q", 1e21, 9.999999999999999e20, 3, 0, 15},
		{"neg.example", "p", "p", "q", -0.0, -1e-320, 3, 0, 0},
		{"nil.example", "", "", "", 0, 0, 0, 0, 0},
		{"empty.example", "", "", "", 0, 0, 1, 0, 0},
		{"one.example", "p", "p", "", 0.3333333333333333, 0, 2, math.MaxInt32, 0},
	} {
		f.Add(s.domain, s.primary, s.k1, s.k2, s.c1, s.c2, s.credits, s.rank, s.flags)
	}
	f.Fuzz(func(t *testing.T, domain, primary, k1, k2 string, c1, c2 float64, credits byte, rank int, flags byte) {
		if math.IsNaN(c1) || math.IsInf(c1, 0) || math.IsNaN(c2) || math.IsInf(c2, 0) {
			t.Skip("json.Marshal rejects non-finite numbers")
		}
		r := LookupResponse{
			Domain: domain, Found: flags&1 != 0, Primary: primary, Rank: rank,
			HasSMTP: flags&2 != 0, Untrusted: flags&4 != 0, Stale: flags&8 != 0,
			Snapshot: SnapshotMeta{Date: k2, Corpus: primary, Epoch: uint64(rank), Domains: -rank},
		}
		switch credits % 4 {
		case 1:
			r.Credits = map[string]float64{}
		case 2:
			r.Credits = map[string]float64{k1: c1}
		case 3:
			r.Credits = map[string]float64{k1: c1, k2: c2}
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := r.appendJSON([]byte("prefix"))
		if !ok || !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("appendJSON (ok %v):\ngot  %s\nwant %s", ok, got, want)
		}
	})
}

// TestLookupJSONNonFinite: a credit json.Marshal cannot write is the
// encoder's refusal too, never a body.
func TestLookupJSONNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := LookupResponse{Domain: "x", Credits: map[string]float64{"p": v}}
		if _, err := json.Marshal(r); err == nil {
			t.Fatalf("json.Marshal accepted credit %v", v)
		}
		if _, ok := r.appendJSON(nil); ok {
			t.Errorf("appendJSON accepted credit %v", v)
		}
	}
}

// TestEncodersAllocateNothing: with a reused buffer, the response head
// and the lookup body are written without one allocation.
func TestEncodersAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates, distorting alloc counts")
	}
	look := LookupResponse{
		Domain: "one.example", Found: true, Primary: "prov-a.net",
		Credits: map[string]float64{"prov-a.net": 0.5, "prov-b.net": 0.25, "prov-c.net": 0.25},
		Rank:    1, HasSMTP: true,
		Snapshot: SnapshotMeta{Date: "2021-01", Corpus: "test", Epoch: 1, Domains: 4},
	}
	var body []byte
	if n := testing.AllocsPerRun(100, func() { body, _ = look.appendJSON(body[:0]) }); n != 0 {
		t.Errorf("appendJSON: %.1f allocs/op, want 0", n)
	}
	resp := Response{Status: 503, Body: body, RetryAfter: true, Close: true}
	var out []byte
	if n := testing.AllocsPerRun(100, func() { out = appendResponse(out[:0], resp) }); n != 0 {
		t.Errorf("appendResponse: %.1f allocs/op, want 0", n)
	}
	want := "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n" +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\nRetry-After: 1\r\nConnection: close\r\n\r\n" + string(body)
	if string(out) != want {
		t.Errorf("appendResponse wrote\n%q\nwant\n%q", out, want)
	}
}
