// Package certs provides the simulated WebPKI used by the SMTP substrate:
// certificate authorities, leaf issuance with Common Name and Subject
// Alternative Names, self-signed certificates, a trust store modeling "a
// major browser's" root set, and validation.
//
// The paper's methodology treats a STARTTLS certificate as the most
// reliable provider signal, but only when the certificate is valid
// ("trusted by a major browser, e.g. Firefox"). This package supplies
// both halves: providers get CA-signed certificates, misconfigured or
// self-hosted servers get self-signed or expired ones.
//
// Every key is Ed25519, drawn from the caller's seeded rng, and Ed25519
// signatures are deterministic: the same seed yields the same
// certificate bytes, and the same fingerprints, in every process.
//
// Issuance is two steps. The draw step (CA.Draw, DrawSelfSigned) reads
// the rng, for the key seed, and takes the CA's next serial; it runs in
// generation order. The make step (Draft.Make) reads no randomness and
// does the crypto, so a generator can draw every leaf first and make
// them all at once, on as many goroutines as it likes. Issue and
// SelfSigned are the two steps back to back.
package certs

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"math/rand/v2"
	"sync"
	"time"
)

// Reference time used by generated certificates so that worlds are
// reproducible regardless of wall-clock: certificates are valid around
// SimNow, and validation uses SimNow unless overridden.
var SimNow = time.Date(2021, time.June, 8, 0, 0, 0, 0, time.UTC)

// A CA is a certificate authority able to issue leaf certificates.
type CA struct {
	// Name is the CA's distinguished common name.
	Name string

	cert *x509.Certificate
	key  ed25519.PrivateKey

	mu     sync.Mutex
	serial int64
}

// NewCA creates a self-signed root CA whose key is drawn from rng.
func NewCA(name string, rng *rand.Rand) (*CA, error) {
	seed := drawSeed(rng)
	key := ed25519.NewKeyFromSeed(seed[:])
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject: pkix.Name{
			CommonName:   name,
			Organization: []string{name},
		},
		NotBefore:             SimNow.Add(-5 * 365 * 24 * time.Hour),
		NotAfter:              SimNow.Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(nil, tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, fmt.Errorf("certs: create CA cert: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{Name: name, cert: cert, key: key, serial: 1}, nil
}

// LeafSpec describes a leaf certificate to issue.
type LeafSpec struct {
	// CommonName is the subject CN, conventionally the provider's
	// principal mail host (e.g. "mx.google.com").
	CommonName string
	// DNSNames are the SANs. If empty, CommonName is used as the sole SAN.
	DNSNames []string
	// Org is the subject organization.
	Org string
	// Expired backdates the certificate so that it fails validation.
	Expired bool
	// NotAfter overrides the expiry; zero means SimNow+1y (or in the past
	// when Expired is set).
	NotAfter time.Time
}

// A Leaf couples a certificate with its private key, ready for use in a
// TLS server.
type Leaf struct {
	Cert *x509.Certificate
	Key  ed25519.PrivateKey
	// Chain holds the issuing chain (excluding the leaf), empty for
	// self-signed leaves.
	Chain []*x509.Certificate
}

// A Draft is a leaf whose randomness is drawn: its key seed and serial
// are fixed, and Make turns them into the certificate.
type Draft struct {
	// Leaf is allocated at draw time and filled by Make, so whatever
	// holds it before then holds the made certificate afterwards.
	Leaf *Leaf

	spec   LeafSpec
	seed   [ed25519.SeedSize]byte
	ca     *CA // nil for a self-signed leaf
	serial int64
}

// Draw takes a CA-signed leaf's key seed from rng and its serial from
// the CA. The spec's slices must not change until Make has run.
func (ca *CA) Draw(spec LeafSpec, rng *rand.Rand) *Draft {
	d := &Draft{Leaf: new(Leaf), spec: spec, seed: drawSeed(rng), ca: ca}
	ca.mu.Lock()
	ca.serial++
	d.serial = ca.serial
	ca.mu.Unlock()
	return d
}

// DrawSelfSigned takes a self-signed leaf's key seed from rng.
func DrawSelfSigned(spec LeafSpec, rng *rand.Rand) *Draft {
	return &Draft{Leaf: new(Leaf), spec: spec, seed: drawSeed(rng), serial: 1}
}

// Make derives the draft's key, signs its certificate and fills
// d.Leaf. It reads no randomness and only reads the CA, so drafts may
// be made in any order and concurrently, with the same bytes.
func (d *Draft) Make() error {
	key := ed25519.NewKeyFromSeed(d.seed[:])
	tmpl, err := leafTemplate(d.spec, d.serial)
	if err != nil {
		return err
	}
	parent, signer, step := tmpl, key, "self-sign"
	var chain []*x509.Certificate
	if d.ca != nil {
		parent, signer, step = d.ca.cert, d.ca.key, "issue leaf"
		chain = []*x509.Certificate{d.ca.cert}
	}
	der, err := x509.CreateCertificate(nil, tmpl, parent, key.Public(), signer)
	if err != nil {
		return fmt.Errorf("certs: %s: %w", step, err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return err
	}
	*d.Leaf = Leaf{Cert: cert, Key: key, Chain: chain}
	return nil
}

// Issue creates a CA-signed leaf certificate whose key is drawn from rng.
func (ca *CA) Issue(spec LeafSpec, rng *rand.Rand) (*Leaf, error) {
	return drawn(ca.Draw(spec, rng))
}

// SelfSigned creates a self-signed leaf, as a misconfigured or homegrown
// mail server would present; its key is drawn from rng.
func SelfSigned(spec LeafSpec, rng *rand.Rand) (*Leaf, error) {
	return drawn(DrawSelfSigned(spec, rng))
}

// drawn makes d at once.
func drawn(d *Draft) (*Leaf, error) {
	if err := d.Make(); err != nil {
		return nil, err
	}
	return d.Leaf, nil
}

func leafTemplate(spec LeafSpec, serial int64) (*x509.Certificate, error) {
	if spec.CommonName == "" {
		return nil, errors.New("certs: leaf requires a common name")
	}
	dns := spec.DNSNames
	if len(dns) == 0 {
		dns = []string{spec.CommonName}
	}
	notBefore := SimNow.Add(-90 * 24 * time.Hour)
	notAfter := spec.NotAfter
	if notAfter.IsZero() {
		notAfter = SimNow.Add(365 * 24 * time.Hour)
	}
	if spec.Expired {
		notBefore = SimNow.Add(-2 * 365 * 24 * time.Hour)
		notAfter = SimNow.Add(-365 * 24 * time.Hour)
	}
	return &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject: pkix.Name{
			CommonName:   spec.CommonName,
			Organization: orgOrDefault(spec),
		},
		DNSNames:    dns,
		NotBefore:   notBefore,
		NotAfter:    notAfter,
		KeyUsage:    x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage: []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}, nil
}

func orgOrDefault(spec LeafSpec) []string {
	if spec.Org != "" {
		return []string{spec.Org}
	}
	return nil
}

// drawSeed draws an Ed25519 key seed from rng, one Uint32 per byte.
// Simulation-only: no real secrets exist.
func drawSeed(rng *rand.Rand) [ed25519.SeedSize]byte {
	var seed [ed25519.SeedSize]byte
	for i := range seed {
		seed[i] = byte(rng.Uint32())
	}
	return seed
}

// TLSCertificate converts the leaf into a tls.Certificate usable in a
// tls.Config, including the chain.
func (l *Leaf) TLSCertificate() tls.Certificate {
	chain := [][]byte{l.Cert.Raw}
	for _, c := range l.Chain {
		chain = append(chain, c.Raw)
	}
	return tls.Certificate{
		Certificate: chain,
		PrivateKey:  l.Key,
		Leaf:        l.Cert,
	}
}

// Fingerprint returns the hex SHA-256 of a certificate's DER bytes — the
// stable identity used when grouping certificates across the dataset.
func Fingerprint(cert *x509.Certificate) string {
	sum := sha256.Sum256(cert.Raw)
	return hex.EncodeToString(sum[:])
}

// A TrustStore models a browser root program.
type TrustStore struct {
	pool *x509.CertPool
}

// NewTrustStore creates a store trusting the given CAs.
func NewTrustStore(cas ...*CA) *TrustStore {
	ts := &TrustStore{pool: x509.NewCertPool()}
	for _, ca := range cas {
		ts.AddCA(ca)
	}
	return ts
}

// AddCA adds a root to the store.
func (ts *TrustStore) AddCA(ca *CA) {
	ts.pool.AddCert(ca.cert)
}

// Pool returns the underlying x509.CertPool for use in tls.Config.
func (ts *TrustStore) Pool() *x509.CertPool { return ts.pool }

// Validate checks that the chain (leaf first) verifies to a trusted root
// at SimNow. The name is not checked here; name agreement is a
// methodology-level concern handled by the inference code.
func (ts *TrustStore) Validate(chain []*x509.Certificate) error {
	if len(chain) == 0 {
		return errors.New("certs: empty chain")
	}
	inter := x509.NewCertPool()
	for _, c := range chain[1:] {
		inter.AddCert(c)
	}
	_, err := chain[0].Verify(x509.VerifyOptions{
		Roots:         ts.pool,
		Intermediates: inter,
		CurrentTime:   SimNow,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	})
	return err
}

// Names extracts the certificate's subject CN and SANs, CN first,
// de-duplicated — the name set the inference methodology consumes.
func Names(cert *x509.Certificate) []string {
	if cert == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	add(cert.Subject.CommonName)
	for _, n := range cert.DNSNames {
		add(n)
	}
	return out
}
