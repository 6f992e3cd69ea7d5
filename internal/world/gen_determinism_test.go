package world

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"mxmap/internal/certs"
)

// TestGenerateDeterministic holds generation to a pure function of the
// seed: the roster, the CA certificate and every host's STARTTLS leaf
// come out the same from two Generate calls.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 21, Scale: 0.003, TailProviders: 20, SelfISPs: 6}
	w1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Providers) != len(w2.Providers) {
		t.Fatalf("provider count %d vs %d", len(w1.Providers), len(w2.Providers))
	}
	for i := range w1.Providers {
		if w1.Providers[i].ID != w2.Providers[i].ID {
			t.Errorf("provider %d: %q vs %q", i, w1.Providers[i].ID, w2.Providers[i].ID)
			if i > 25 {
				break
			}
		}
	}

	leaves := 0
	for addr, h1 := range w1.Hosts {
		h2, ok := w2.Hosts[addr]
		if !ok {
			t.Fatalf("%s: host in the first world only", addr)
		}
		l1, l2 := leafOf(h1), leafOf(h2)
		if (l1 == nil) != (l2 == nil) {
			t.Fatalf("%s: STARTTLS leaf in one world only", addr)
		}
		if l1 == nil {
			continue
		}
		leaves++
		if fp1, fp2 := certs.Fingerprint(l1.Cert), certs.Fingerprint(l2.Cert); fp1 != fp2 {
			t.Fatalf("%s: leaf fingerprint %s vs %s", addr, fp1, fp2)
		}
	}
	if leaves == 0 {
		t.Fatal("no host presents a certificate")
	}

	// The CA's certificate rides in the chain of every leaf it issues;
	// a probe issued from one rng seed by both CAs shows it, and the
	// CA's signature over the probe, byte for byte.
	probe := func(w *World) *certs.Leaf {
		leaf, err := w.CA.Issue(certs.LeafSpec{CommonName: "probe.test"}, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			t.Fatal(err)
		}
		return leaf
	}
	p1, p2 := probe(w1), probe(w2)
	if !bytes.Equal(p1.Chain[0].Raw, p2.Chain[0].Raw) {
		t.Error("CA certificate DER differs between two worlds from one seed")
	}
	if !bytes.Equal(p1.Cert.Raw, p2.Cert.Raw) {
		t.Error("a leaf issued by the two CAs from one rng seed differs")
	}
}

func leafOf(h *Host) *certs.Leaf {
	if h.SMTP == nil {
		return nil
	}
	return h.SMTP.Leaf
}
