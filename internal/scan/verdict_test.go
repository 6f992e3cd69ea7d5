package scan

import (
	"context"
	"crypto/ed25519"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"mxmap/internal/certs"
	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/netsim"
	"mxmap/internal/smtp"
	"mxmap/internal/world"
)

// testCert is a certificate with its key, for chains certs does not
// issue: a root, an intermediate under it, a leaf under that.
type testCert struct {
	cert *x509.Certificate
	key  ed25519.PrivateKey
}

// newTestCert issues a certificate for name, signed by parent, or
// self-signed when parent is nil, with its key and serial drawn from rng.
func newTestCert(t *testing.T, rng *rand.Rand, name string, isCA bool, parent *testCert) *testCert {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Uint32())
	}
	key := ed25519.NewKeyFromSeed(seed)
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(rng.Int64N(1<<62) + 1),
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             certs.SimNow.Add(-24 * time.Hour),
		NotAfter:              certs.SimNow.Add(365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
		IsCA:                  isCA,
	}
	if !isCA {
		tmpl.KeyUsage = x509.KeyUsageDigitalSignature
		tmpl.ExtKeyUsage = []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth}
		tmpl.DNSNames = []string{name}
	}
	signer := &testCert{cert: tmpl, key: key}
	if parent != nil {
		signer = parent
	}
	der, err := x509.CreateCertificate(nil, tmpl, signer.cert, key.Public(), signer.key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return &testCert{cert: cert, key: key}
}

// startTLS runs an SMTP server at ip:25 that presents chain on STARTTLS.
func (w *chaosWorld) startTLS(t *testing.T, ip string, chain tls.Certificate) {
	t.Helper()
	srv, err := smtp.NewServer(smtp.Config{Hostname: "mx.verdict.test",
		TLS: &tls.Config{Certificates: []tls.Certificate{chain}}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := w.net.Listen(netip.MustParseAddrPort(ip + ":25"))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
}

// TestChainVerdictsExact holds the lane's verdict memo to the whole
// presented chain: one leaf under its real intermediate and under an
// unrelated CA's certificate is two chains with two verdicts, and each
// verdict, the negative one included, is the same at its second
// sighting. Four addresses, two verifications.
func TestChainVerdictsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	root := newTestCert(t, rng, "Verdict Root", true, nil)
	inter := newTestCert(t, rng, "Verdict Intermediate", true, root)
	stranger := newTestCert(t, rng, "Stranger CA", true, nil)
	leaf := newTestCert(t, rng, "mx.verdict.test", false, inter)
	trust := certs.NewTrustStore()
	trust.Pool().AddCert(root.cert)
	chain := func(issuer *testCert) tls.Certificate {
		return tls.Certificate{Certificate: [][]byte{leaf.cert.Raw, issuer.cert.Raw}, PrivateKey: leaf.key}
	}

	w := &chaosWorld{net: netsim.New(), cat: dns.NewCatalog()}
	wantValid := map[string]bool{"10.40.0.1": true, "10.40.0.2": false, "10.40.0.3": false, "10.40.0.4": true}
	for i, ip := range []string{"10.40.0.1", "10.40.0.2", "10.40.0.3", "10.40.0.4"} {
		w.addDomain(t, "d"+string(rune('1'+i))+".verdict.test", ip)
		issuer := stranger
		if wantValid[ip] {
			issuer = inter
		}
		w.startTLS(t, ip, chain(issuer))
	}
	col := &Collector{Resolver: dns.CatalogResolver{Catalog: w.cat}, Dialer: w.net, Trust: trust, Concurrency: 2}
	snap := dataset.NewSnapshot("now", "verdicts")
	snap.Domains = make([]dataset.DomainRecord, len(w.targets))
	l := newLane(col, memorySink(snap))
	if _, err := collect(context.Background(), []*lane{l}, 2, w.targets, nil); err != nil {
		t.Fatal(err)
	}

	fp := certs.Fingerprint(leaf.cert)
	for ip, want := range wantValid {
		info, ok := snap.IP(netip.MustParseAddr(ip))
		if !ok || info.Scan == nil || info.Scan.CertFingerprint != fp {
			t.Fatalf("%s: %+v, want the shared leaf", ip, info)
		}
		if info.Scan.CertValid != want {
			t.Errorf("%s: CertValid = %v, want %v", ip, info.Scan.CertValid, want)
		}
	}
	if n := len(l.run.verdicts.m); n != 2 {
		t.Errorf("lane holds %d verdicts for two distinct chains", n)
	}
}

// TestChainVerdictsScopedToRun holds the memo to its run: a Collector
// whose trust store gains the missing root between two Collect calls
// reports the certificate valid at the second, so no verdict outlived
// the first.
func TestChainVerdictsScopedToRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	ca, err := certs.NewCA("Late Root", rng)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafSpec{CommonName: "mx.late.test"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := &chaosWorld{net: netsim.New(), cat: dns.NewCatalog()}
	addr := w.addDomain(t, "late.test", "10.41.0.1")
	w.startTLS(t, "10.41.0.1", leaf.TLSCertificate())
	trust := certs.NewTrustStore()
	col := &Collector{Resolver: dns.CatalogResolver{Catalog: w.cat}, Dialer: w.net, Trust: trust}

	for i, want := range []bool{false, true} {
		snap, err := col.Collect(context.Background(), "late", "now", w.targets)
		if err != nil {
			t.Fatal(err)
		}
		info, _ := snap.IP(addr)
		if info.Scan == nil || !info.Scan.CertPresent || info.Scan.CertValid != want {
			t.Errorf("collect %d: scan %+v, want CertValid %v", i+1, info.Scan, want)
		}
		trust.AddCA(ca)
	}
}

// TestFleetSharesOneVerdictMemo holds the memo to the run, not the
// lane: four single-goroutine lanes, CollectFleet's layout, all point
// at one memo, and it holds each distinct chain the flat world
// presented once, whichever lanes scanned its addresses.
func TestFleetSharesOneVerdictMemo(t *testing.T) {
	const n = 2000
	fw, err := world.NewFlatWorld(world.FlatConfig{Seed: 1, NumDomains: n, AdversarialPercent: 2})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]Target, n)
	for i := range targets {
		targets[i] = Target{Name: fw.DomainName(i)}
	}
	snap := dataset.NewSnapshot("2021-06", fw.Cfg.Corpus)
	snap.Domains = make([]dataset.DomainRecord, n)
	var lanes []*lane
	for range 4 {
		c := &Collector{Resolver: fw.Resolver(), Dialer: fw.Dialer(), Trust: fw.Trust, Parked: fw.Parked}
		lanes = append(lanes, newLane(c, memorySink(snap)))
	}
	if _, err := collect(context.Background(), lanes, 1, targets, nil); err != nil {
		t.Fatal(err)
	}

	memo := lanes[0].run.verdicts
	for i, l := range lanes {
		if l.run.verdicts != memo {
			t.Fatalf("lane %d keeps its own verdict memo", i)
		}
	}
	chains := make(map[string]bool)
	for _, ip := range snap.IPs {
		if ip.Scan != nil && ip.Scan.CertPresent {
			chains[ip.Scan.CertFingerprint] = true
		}
	}
	scanning := 0
	for _, l := range lanes {
		if len(l.ips) > 0 {
			scanning++
		}
	}
	if len(chains) < 2 || scanning < 2 {
		t.Fatalf("%d distinct chains, %d lanes scanning: nothing to share", len(chains), scanning)
	}
	if got := len(memo.m); got != len(chains) {
		t.Errorf("memo holds %d verdicts for %d distinct chains", got, len(chains))
	}
}
