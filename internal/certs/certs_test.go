package certs

import (
	"bytes"
	"crypto/ed25519"
	"crypto/x509"
	"math/rand/v2"
	"sync"
	"testing"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func TestCAIssueAndValidate(t *testing.T) {
	ca, err := NewCA("Sim Root CA", testRNG())
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(LeafSpec{
		CommonName: "mx.provider.com",
		DNSNames:   []string{"mx.provider.com", "mx1.provider.com", "mx2.provider.com"},
		Org:        "Provider Inc",
	}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	chain := append([]*x509.Certificate{leaf.Cert}, leaf.Chain...)
	if err := ts.Validate(chain); err != nil {
		t.Errorf("Validate = %v, want nil", err)
	}
	if got := leaf.Cert.Subject.CommonName; got != "mx.provider.com" {
		t.Errorf("CN = %q", got)
	}
	if len(leaf.Cert.DNSNames) != 3 {
		t.Errorf("SANs = %v", leaf.Cert.DNSNames)
	}
}

func TestSelfSignedNotTrusted(t *testing.T) {
	ca, err := NewCA("Sim Root CA", testRNG())
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := SelfSigned(LeafSpec{CommonName: "mail.selfhosted.com"}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	if err := ts.Validate([]*x509.Certificate{leaf.Cert}); err == nil {
		t.Error("Validate accepted self-signed leaf")
	}
}

func TestExpiredNotTrusted(t *testing.T) {
	ca, err := NewCA("Sim Root CA", testRNG())
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(LeafSpec{CommonName: "old.example.com", Expired: true}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	chain := append([]*x509.Certificate{leaf.Cert}, leaf.Chain...)
	if err := ts.Validate(chain); err == nil {
		t.Error("Validate accepted expired leaf")
	}
}

func TestForeignCANotTrusted(t *testing.T) {
	ca1, _ := NewCA("Root A", testRNG())
	ca2, _ := NewCA("Root B", testRNG())
	leaf, err := ca2.Issue(LeafSpec{CommonName: "x.example.com"}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca1)
	chain := append([]*x509.Certificate{leaf.Cert}, leaf.Chain...)
	if err := ts.Validate(chain); err == nil {
		t.Error("Validate accepted leaf from untrusted CA")
	}
	ts.AddCA(ca2)
	if err := ts.Validate(chain); err != nil {
		t.Errorf("Validate after AddCA = %v", err)
	}
}

func TestValidateEmptyChain(t *testing.T) {
	ca, _ := NewCA("Root", testRNG())
	if err := NewTrustStore(ca).Validate(nil); err == nil {
		t.Error("Validate accepted empty chain")
	}
}

func TestLeafRequiresCommonName(t *testing.T) {
	ca, _ := NewCA("Root", testRNG())
	if _, err := ca.Issue(LeafSpec{}, testRNG()); err == nil {
		t.Error("Issue accepted empty CN")
	}
	if _, err := SelfSigned(LeafSpec{}, testRNG()); err == nil {
		t.Error("SelfSigned accepted empty CN")
	}
}

func TestNames(t *testing.T) {
	ca, _ := NewCA("Root", testRNG())
	leaf, err := ca.Issue(LeafSpec{
		CommonName: "mx.google.com",
		DNSNames:   []string{"mx.google.com", "aspmx2.googlemail.com", "mx1.smtp.goog"},
	}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	names := Names(leaf.Cert)
	want := []string{"mx.google.com", "aspmx2.googlemail.com", "mx1.smtp.goog"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if Names(nil) != nil {
		t.Error("Names(nil) != nil")
	}
}

func TestFingerprintStableAndUnique(t *testing.T) {
	ca, _ := NewCA("Root", testRNG())
	l1, _ := ca.Issue(LeafSpec{CommonName: "a.example.com"}, testRNG())
	l2, _ := ca.Issue(LeafSpec{CommonName: "b.example.com"}, testRNG())
	if Fingerprint(l1.Cert) != Fingerprint(l1.Cert) {
		t.Error("fingerprint unstable")
	}
	if Fingerprint(l1.Cert) == Fingerprint(l2.Cert) {
		t.Error("distinct certs share a fingerprint")
	}
	if len(Fingerprint(l1.Cert)) != 64 {
		t.Errorf("fingerprint length = %d", len(Fingerprint(l1.Cert)))
	}
}

func TestTLSCertificate(t *testing.T) {
	ca, _ := NewCA("Root", testRNG())
	leaf, _ := ca.Issue(LeafSpec{CommonName: "mx.example.com"}, testRNG())
	tc := leaf.TLSCertificate()
	if len(tc.Certificate) != 2 {
		t.Errorf("chain length = %d, want leaf+root", len(tc.Certificate))
	}
	if tc.Leaf == nil || tc.PrivateKey == nil {
		t.Error("TLSCertificate missing leaf or key")
	}
}

// TestSameSeedSameDER holds issuance to a pure function of the rng:
// two rngs seeded alike give byte-equal CA, issued and self-signed
// certificates, so fingerprints agree across processes.
func TestSameSeedSameDER(t *testing.T) {
	issue := func() [][]byte {
		rng := testRNG()
		ca, err := NewCA("Root", rng)
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := ca.Issue(LeafSpec{CommonName: "mx.example.com", Org: "Example"}, rng)
		if err != nil {
			t.Fatal(err)
		}
		self, err := SelfSigned(LeafSpec{CommonName: "mail.example.org"}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{ca.cert.Raw, leaf.Cert.Raw, self.Cert.Raw}
	}
	a, b := issue(), issue()
	for i, what := range []string{"NewCA", "Issue", "SelfSigned"} {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("%s: two runs from one seed give different DER", what)
		}
	}
}

func TestDeterministicIssuanceDiffersPerSerial(t *testing.T) {
	ca, _ := NewCA("Root", testRNG())
	l1, _ := ca.Issue(LeafSpec{CommonName: "x.example.com"}, testRNG())
	l2, _ := ca.Issue(LeafSpec{CommonName: "x.example.com"}, testRNG())
	if l1.Cert.SerialNumber.Cmp(l2.Cert.SerialNumber) == 0 {
		t.Error("serials repeat")
	}
}

func BenchmarkIssueLeaf(b *testing.B) {
	ca, err := NewCA("Root", testRNG())
	if err != nil {
		b.Fatal(err)
	}
	rng := testRNG()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Issue(LeafSpec{CommonName: "mx.example.com"}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDraftMatchesIssue holds the two-step issuance to the one-step
// one: the same specs drawn from an rng of the same seed, then made in
// reverse order on concurrent goroutines, give the DER, key and chain
// that Issue and SelfSigned give, and that a reference written in one
// step (seed, serial, template, sign, parse) gives, and leave the rng
// and the CA's serial where those leave them.
func TestDraftMatchesIssue(t *testing.T) {
	specs := []struct {
		spec       LeafSpec
		selfSigned bool
	}{
		{LeafSpec{CommonName: "mx.provider.com"}, false},
		{LeafSpec{CommonName: "mail.selfhosted.com"}, true},
		{LeafSpec{CommonName: "old.example.com", Expired: true}, false},
		{LeafSpec{CommonName: "old.selfhosted.com", Expired: true}, true},
		{LeafSpec{CommonName: "mx.google.com",
			DNSNames: []string{"mx.google.com", "aspmx2.googlemail.com", "mx1.smtp.goog"}}, false},
		{LeafSpec{CommonName: "*.shared.host.com",
			DNSNames: []string{"*.shared.host.com", "shared.host.com"}, Org: "Host Inc"}, false},
		{LeafSpec{CommonName: "box.example.org", Org: "Example Org"}, true},
	}
	newCA := func() *CA {
		ca, err := NewCA("Sim Root CA", testRNG())
		if err != nil {
			t.Fatal(err)
		}
		return ca
	}

	// One step: the public API.
	ca, rng := newCA(), testRNG()
	var want []*Leaf
	for _, s := range specs {
		var leaf *Leaf
		var err error
		if s.selfSigned {
			leaf, err = SelfSigned(s.spec, rng)
		} else {
			leaf, err = ca.Issue(s.spec, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, leaf)
	}
	wantNext, wantSerial := rng.Uint64(), ca.serial

	// One step: the reference.
	refCA, refRNG := newCA(), testRNG()
	for i, s := range specs {
		ref := issueInOneStep(t, refCA, s.spec, s.selfSigned, refRNG)
		sameLeaf(t, "reference", i, ref, want[i])
	}
	if next := refRNG.Uint64(); next != wantNext {
		t.Errorf("reference left the rng at %#x, Issue at %#x", next, wantNext)
	}

	// Two steps: every draw in order, then every make, last first and
	// all at once.
	drawCA, drawRNG := newCA(), testRNG()
	drafts := make([]*Draft, len(specs))
	for i, s := range specs {
		if s.selfSigned {
			drafts[i] = DrawSelfSigned(s.spec, drawRNG)
		} else {
			drafts[i] = drawCA.Draw(s.spec, drawRNG)
		}
	}
	if next := drawRNG.Uint64(); next != wantNext {
		t.Errorf("draws left the rng at %#x, Issue at %#x", next, wantNext)
	}
	if drawCA.serial != wantSerial {
		t.Errorf("draws left the CA at serial %d, Issue at %d", drawCA.serial, wantSerial)
	}
	errs := make([]error, len(drafts))
	var wg sync.WaitGroup
	for i := len(drafts) - 1; i >= 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = drafts[i].Make()
		}()
	}
	wg.Wait()
	for i, d := range drafts {
		if errs[i] != nil {
			t.Fatalf("draft %d: %v", i, errs[i])
		}
		sameLeaf(t, "draft", i, d.Leaf, want[i])
	}
}

// issueInOneStep is issuance as one sequence: draw the key, take the
// serial, build the template, sign, parse.
func issueInOneStep(t *testing.T, ca *CA, spec LeafSpec, selfSigned bool, rng *rand.Rand) *Leaf {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Uint32())
	}
	key := ed25519.NewKeyFromSeed(seed)
	serial := int64(1)
	if !selfSigned {
		ca.serial++
		serial = ca.serial
	}
	tmpl, err := leafTemplate(spec, serial)
	if err != nil {
		t.Fatal(err)
	}
	leaf := &Leaf{Key: key}
	var der []byte
	if selfSigned {
		der, err = x509.CreateCertificate(nil, tmpl, tmpl, key.Public(), key)
	} else {
		der, err = x509.CreateCertificate(nil, tmpl, ca.cert, key.Public(), ca.key)
		leaf.Chain = []*x509.Certificate{ca.cert}
	}
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Cert, err = x509.ParseCertificate(der); err != nil {
		t.Fatal(err)
	}
	return leaf
}

func sameLeaf(t *testing.T, what string, i int, got, want *Leaf) {
	t.Helper()
	if got.Cert == nil || !bytes.Equal(got.Cert.Raw, want.Cert.Raw) {
		t.Errorf("%s %d: DER differs from Issue's", what, i)
	}
	if !bytes.Equal(got.Key, want.Key) {
		t.Errorf("%s %d: key differs from Issue's", what, i)
	}
	if len(got.Chain) != len(want.Chain) {
		t.Fatalf("%s %d: chain of %d, Issue's of %d", what, i, len(got.Chain), len(want.Chain))
	}
	for k := range got.Chain {
		if !bytes.Equal(got.Chain[k].Raw, want.Chain[k].Raw) {
			t.Errorf("%s %d: chain[%d] differs from Issue's", what, i, k)
		}
	}
}
