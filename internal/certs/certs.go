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
package certs

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand/v2"
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
	key  *ecdsa.PrivateKey

	mu     sync.Mutex
	serial int64
}

// NewCA creates a self-signed root CA. The rng parameter seeds key
// generation deterministically; pass nil for crypto-random keys.
func NewCA(name string, rng *mrand.Rand) (*CA, error) {
	key, err := genKey(rng)
	if err != nil {
		return nil, fmt.Errorf("certs: generate CA key: %w", err)
	}
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
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
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
	Key  *ecdsa.PrivateKey
	// Chain holds the issuing chain (excluding the leaf), empty for
	// self-signed leaves.
	Chain []*x509.Certificate
}

// Issue creates a CA-signed leaf certificate.
func (ca *CA) Issue(spec LeafSpec, rng *mrand.Rand) (*Leaf, error) {
	key, err := genKey(rng)
	if err != nil {
		return nil, fmt.Errorf("certs: generate leaf key: %w", err)
	}
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.mu.Unlock()
	tmpl, err := leafTemplate(spec, serial)
	if err != nil {
		return nil, err
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, fmt.Errorf("certs: issue leaf: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Cert: cert, Key: key, Chain: []*x509.Certificate{ca.cert}}, nil
}

// SelfSigned creates a self-signed leaf, as a misconfigured or homegrown
// mail server would present.
func SelfSigned(spec LeafSpec, rng *mrand.Rand) (*Leaf, error) {
	key, err := genKey(rng)
	if err != nil {
		return nil, fmt.Errorf("certs: generate key: %w", err)
	}
	tmpl, err := leafTemplate(spec, 1)
	if err != nil {
		return nil, err
	}
	tmpl.IsCA = false
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("certs: self-sign: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Cert: cert, Key: key}, nil
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

// genKey derives a P-256 key from the seeded rng by rejection-sampling
// the scalar directly. ecdsa.GenerateKey is deliberately avoided for the
// seeded path: Go's crypto/ecdsa consumes a nondeterministic number of
// bytes from its reader (randutil.MaybeReadByte), which desyncs a shared
// seeded stream and makes everything generated after the key draw
// irreproducible. Sampling here consumes rng draws that depend only on
// the rng's own values, so generation is a pure function of the seed.
// Simulation-only: not cryptographically secure, which is irrelevant
// here because no real secrets exist.
func genKey(rng *mrand.Rand) (*ecdsa.PrivateKey, error) {
	if rng == nil {
		return ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	}
	curve := elliptic.P256()
	params := curve.Params()
	buf := make([]byte, (params.N.BitLen()+7)/8)
	for {
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
		d := new(big.Int).SetBytes(buf)
		if d.Sign() > 0 && d.Cmp(params.N) < 0 {
			priv := &ecdsa.PrivateKey{D: d}
			priv.Curve = curve
			priv.X, priv.Y = curve.ScalarBaseMult(buf)
			return priv, nil
		}
	}
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

// PEM encodes the leaf certificate (not the key) in PEM form.
func (l *Leaf) PEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: l.Cert.Raw})
}

// Fingerprint returns the hex SHA-256 of a certificate's DER bytes — the
// stable identity used when grouping certificates across the dataset.
func Fingerprint(cert *x509.Certificate) string {
	sum := sha256.Sum256(cert.Raw)
	return hex.EncodeToString(sum[:])
}

// A TrustStore models a browser root program.
type TrustStore struct {
	pool  *x509.CertPool
	roots []*x509.Certificate
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
	ts.roots = append(ts.roots, ca.cert)
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
