package world

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"

	"mxmap/internal/certs"
	"mxmap/internal/ledger"
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

// TestAssignmentArithmeticDigest pins the assignment model's
// floating-point arithmetic bit for bit on scan-wire's world: every
// option's target share at every snapshot, and every option's weight
// for every domain at the first and last snapshot. TestWorldDigests
// (root package) sees that arithmetic only where it flips a draw, so an
// anchor nudged by 1e-9, or a sum taken in another order, can leave
// every world byte in place; it cannot leave this digest.
func TestAssignmentArithmeticDigest(t *testing.T) {
	w, err := Generate(Config{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	d := struct {
		Phase   string `json:"phase"`
		SHA256  string `json:"sha256"`
		Shares  int    `json:"shares"`
		Weights int    `json:"weights"`
	}{Phase: "world.Config{Seed: 1, Scale: 0.02} shares and weights"}
	h := sha256.New()
	put := func(f float64) { h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(f))) }
	for _, name := range []string{CorpusAlexa, CorpusCOM, CorpusGOV} {
		c := w.Corpus(name)
		ctx := &assignCtx{w: w, corpus: c, anchors: anchorsFor(name)}
		if err := ctx.buildOptions(); err != nil {
			t.Fatal(err)
		}
		for dt := range c.Dates {
			for oi := range ctx.options {
				put(ctx.shares[dt][oi])
				d.Shares++
			}
		}
		for _, dom := range c.Domains {
			pr := ctx.prefsOf(dom)
			for _, dt := range []int{0, len(c.Dates) - 1} {
				for oi := range ctx.options {
					put(ctx.weightFor(&pr, oi, dt))
					d.Weights++
				}
			}
		}
	}
	d.SHA256 = hex.EncodeToString(h.Sum(nil))
	ledger.CheckPhase(t, "DIGESTS.json", d)
}

func leafOf(h *Host) *certs.Leaf {
	if h.SMTP == nil {
		return nil
	}
	return h.SMTP.Leaf
}
