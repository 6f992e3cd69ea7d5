// Package dataset defines the measurement data model shared by the
// collection pipeline and the inference methodology: per-domain DNS
// observations (the OpenINTEL substitute) joined with per-IP SMTP scan
// observations (the Censys substitute), grouped into dated snapshots.
//
// It also implements the data-availability breakdown the paper reports in
// Table 4, which partitions a corpus by how much of the signal chain
// (MX -> IP -> scan -> certificate/banner) was observable.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"sync"

	"mxmap/internal/asn"
)

// Delegation provenance values for DomainRecord.Delegation. Empty means
// the parent-side delegation checked out (or no provenance data was
// available — the common case for resolvers without a registry view).
const (
	// DelegationStaleGlue: the registry's NS records for the domain
	// disagree with the apex NS set the serving zone publishes — the
	// answers arrived through stale parent glue (hijack suspect).
	DelegationStaleGlue = "stale-glue"
	// DelegationLame: the domain is delegated but its NS set never
	// answers authoritatively.
	DelegationLame = "lame"
)

// MXObs is one observed MX record with the addresses its exchange
// resolved to.
type MXObs struct {
	// Preference is the MX preference; lower is more preferred.
	Preference uint16 `json:"pref"`
	// Exchange is the MX target host, lower-case, no trailing dot.
	Exchange string `json:"exchange"`
	// Addrs are the IPv4 addresses Exchange resolved to (may be empty).
	Addrs []netip.Addr `json:"addrs,omitempty"`
	// Dangling reports that the exchange's enclosing registered zone is
	// gone from the registry: any addresses came from leftover glue, and
	// the name is claimable (serialized; absent for honest exchanges, so
	// pre-adversarial snapshots keep their exact bytes).
	Dangling bool `json:"dangling,omitempty"`
	// Failure classifies the exchange's address resolution. In-memory
	// only: per-record classes feed Snapshot.Health, which is what gets
	// serialized, keeping the JSONL byte format stable.
	Failure FailureClass `json:"-"`
}

// DomainRecord is one domain's DNS observation in a snapshot.
type DomainRecord struct {
	// Domain is the registered domain measured.
	Domain string `json:"domain"`
	// Rank is the Alexa list rank, 0 for non-Alexa corpora.
	Rank int `json:"rank,omitempty"`
	// MX lists the domain's MX records sorted by preference then name.
	MX []MXObs `json:"mx"`
	// SPF is the domain's published v=spf1 policy, when one exists —
	// collected for the eventual-provider extension (paper §3.4).
	SPF string `json:"spf,omitempty"`
	// Delegation records parent-side provenance trouble: "" (sound or
	// unchecked), DelegationStaleGlue, or DelegationLame. Serialized so
	// the trust pass in inference sees it after a disk round trip.
	Delegation string `json:"delegation,omitempty"`
	// Failure classifies the domain's MX lookup (in-memory only; see
	// MXObs.Failure).
	Failure FailureClass `json:"-"`
}

// PrimaryMX returns the most-preferred MX records: all records sharing
// the lowest preference value. The paper assigns domain credit to the
// provider(s) of exactly this set.
func (d *DomainRecord) PrimaryMX() []MXObs {
	if len(d.MX) == 0 {
		return nil
	}
	best := d.MX[0].Preference
	for _, mx := range d.MX[1:] {
		if mx.Preference < best {
			best = mx.Preference
		}
	}
	var out []MXObs
	for _, mx := range d.MX {
		if mx.Preference == best {
			out = append(out, mx)
		}
	}
	return out
}

// ScanInfo is what the port-25 scan learned from one IP address.
type ScanInfo struct {
	// Banner is the full 220 greeting text.
	Banner string `json:"banner,omitempty"`
	// BannerHost is the first token of the banner.
	BannerHost string `json:"banner_host,omitempty"`
	// EHLOHost is the identity in the EHLO response.
	EHLOHost string `json:"ehlo_host,omitempty"`
	// STARTTLS reports whether STARTTLS was advertised.
	STARTTLS bool `json:"starttls,omitempty"`
	// CertPresent reports whether a certificate was captured.
	CertPresent bool `json:"cert_present,omitempty"`
	// CertValid reports whether the chain verified against the trust
	// store ("trusted by a major browser").
	CertValid bool `json:"cert_valid,omitempty"`
	// CertFingerprint is the SHA-256 of the leaf certificate.
	CertFingerprint string `json:"cert_fp,omitempty"`
	// CertNames holds the leaf's subject CN (first) and SANs.
	CertNames []string `json:"cert_names,omitempty"`
	// TLSFailed reports that STARTTLS was advertised but the upgrade did
	// not complete — the cert-signal layer must not read this host as
	// "no STARTTLS" (the paper treats the two differently).
	TLSFailed bool `json:"tls_failed,omitempty"`
}

// IPInfo joins routing data and scan data for one address.
type IPInfo struct {
	// Addr is the address.
	Addr netip.Addr `json:"addr"`
	// ASN is the origin AS, 0 when unrouted.
	ASN asn.ASN `json:"asn,omitempty"`
	// ASName is the origin AS's short name.
	ASName string `json:"as_name,omitempty"`
	// HasCensys reports whether the scanning service had any data for
	// this address (false models scan blind spots and opt-outs).
	HasCensys bool `json:"has_censys"`
	// Port25Open reports whether the SMTP port accepted a connection.
	Port25Open bool `json:"port25_open"`
	// Parked reports that the address belongs to a known domain-parking
	// service (serialized; absent outside adversarial runs).
	Parked bool `json:"parked,omitempty"`
	// Scan holds the application-layer observation when Port25Open.
	Scan *ScanInfo `json:"scan,omitempty"`
	// Failure classifies the scan outcome (in-memory only; see
	// MXObs.Failure).
	Failure FailureClass `json:"-"`
}

// Snapshot is one dated measurement of one corpus.
//
// Concurrency contract: the mutators (AddDomain, AddIP, SortDomains) and
// Index() all synchronize on one internal mutex, so concurrent adds
// interleaved with index lookups are safe — each Index() call returns a
// consistent immutable view of the snapshot at some point between the
// surrounding mutations. Direct reads of the exported Domains/IPs fields
// (including WriteTo and the analysis passes) are NOT synchronized; they
// require that all mutation has quiesced, which is the natural state once
// collection finishes.
type Snapshot struct {
	// Date is the snapshot label, e.g. "2021-06".
	Date string `json:"date"`
	// Corpus identifies the domain list: "alexa", "com" or "gov".
	Corpus string `json:"corpus"`
	// Domains holds the per-domain DNS observations.
	Domains []DomainRecord `json:"-"`
	// IPs indexes scan observations by address string.
	IPs map[string]IPInfo `json:"-"`
	// Stats carries the collection run's retry/breaker counters, set by
	// scan.Collector and folded into Health().
	Stats CollectionStats `json:"-"`

	// mu guards Domains/IPs mutation and the cached index, so concurrent
	// producers and Index() readers may share one snapshot.
	mu  sync.Mutex
	idx *Index
}

// NewSnapshot creates an empty snapshot.
func NewSnapshot(date, corpus string) *Snapshot {
	return &Snapshot{Date: date, Corpus: corpus, IPs: make(map[string]IPInfo)}
}

// IP returns the observation for addr, if any.
func (s *Snapshot) IP(addr netip.Addr) (IPInfo, bool) {
	info, ok := s.IPs[addr.String()]
	return info, ok
}

// AddDomain appends a domain record. Safe for concurrent use with the
// other mutators and Index().
func (s *Snapshot) AddDomain(d DomainRecord) {
	s.mu.Lock()
	s.Domains = append(s.Domains, d)
	s.idx = nil
	s.mu.Unlock()
}

// AddIP records an IP observation, replacing any previous one. Safe for
// concurrent use with the other mutators and Index().
func (s *Snapshot) AddIP(info IPInfo) {
	s.mu.Lock()
	s.IPs[info.Addr.String()] = info
	s.idx = nil
	s.mu.Unlock()
}

// SortDomains orders domains lexicographically for deterministic output.
func (s *Snapshot) SortDomains() {
	s.mu.Lock()
	sort.Slice(s.Domains, func(i, j int) bool { return s.Domains[i].Domain < s.Domains[j].Domain })
	s.idx = nil
	s.mu.Unlock()
}

// jsonLine is the tagged union used for JSONL persistence.
type jsonLine struct {
	Kind   string          `json:"kind"` // "snapshot", "domain", "ip", "footer"
	Header *snapshotHeader `json:"header,omitempty"`
	Domain *DomainRecord   `json:"domain,omitempty"`
	IP     *IPInfo         `json:"ip,omitempty"`
	Footer *ShardFooter    `json:"footer,omitempty"`
}

type snapshotHeader struct {
	Date   string `json:"date"`
	Corpus string `json:"corpus"`
}

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// maxLineBytes bounds a single JSONL line on read. Records carrying long
// SPF chains or TXT-heavy observations can run far past the bufio
// default; the bound only exists to reject stream corruption, so it is
// deliberately generous.
const maxLineBytes = 64 << 20

// bufWriterPool recycles the bufio.Writer used by WriteTo; snapshot
// serialization is called once per shard spill, so per-call allocation of
// the 64KiB buffer shows up at scale.
var bufWriterPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, 64*1024) },
}

// lineBufPool recycles scanner line buffers for the readers. Buffers that
// grew past the initial size are still pooled — a corpus with one huge
// record tends to have more.
var lineBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256*1024)
		return &b
	},
}

func getLineBuf() *[]byte  { return lineBufPool.Get().(*[]byte) }
func putLineBuf(b *[]byte) { lineBufPool.Put(b) }

// newLineScanner builds a bufio.Scanner over r with a pooled buffer and
// the raised line limit. Release the returned buffer with putLineBuf once
// scanning is done.
func newLineScanner(r io.Reader) (*bufio.Scanner, *[]byte) {
	sc := bufio.NewScanner(r)
	buf := getLineBuf()
	sc.Buffer(*buf, maxLineBytes)
	return sc, buf
}

// WriteTo serializes the snapshot as JSON lines: one header line, then
// one line per domain and per IP. It implements io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufWriterPool.Get().(*bufio.Writer)
	bw.Reset(cw)
	defer func() {
		bw.Reset(io.Discard)
		bufWriterPool.Put(bw)
	}()
	if err := json.NewEncoder(bw).Encode(jsonLine{Kind: "snapshot", Header: &snapshotHeader{Date: s.Date, Corpus: s.Corpus}}); err != nil {
		return 0, err
	}
	// Record lines are appended straight into the writer's free space.
	for i := range s.Domains {
		if _, err := bw.Write(appendDomainLine(bw.AvailableBuffer(), &s.Domains[i])); err != nil {
			return 0, err
		}
	}
	// Deterministic IP order.
	keys := make([]string, 0, len(s.IPs))
	for k := range s.IPs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		info := s.IPs[k]
		if _, err := bw.Write(appendIPLine(bw.AvailableBuffer(), &info)); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Read parses a snapshot from the JSONL form written by WriteTo.
func Read(r io.Reader) (*Snapshot, error) {
	return readNamed(r, "")
}

// readNamed is Read with a source name (usually a file path) woven into
// error messages, so "unexpected EOF" from a truncated gzip stream
// arrives as "dataset: <path>: line N: unexpected EOF" instead of a bare
// error with no idea where the damage is.
func readNamed(r io.Reader, name string) (*Snapshot, error) {
	where := func(lineno int) string {
		if name == "" {
			return fmt.Sprintf("dataset: line %d", lineno)
		}
		return fmt.Sprintf("dataset: %s: line %d", name, lineno)
	}
	sc, lineBuf := newLineScanner(r)
	defer putLineBuf(lineBuf)
	var (
		s    *Snapshot
		d    DomainRecord
		info IPInfo
		line jsonLine
	)
	lineno := 0
	for sc.Scan() {
		lineno++
		if len(sc.Bytes()) == 0 {
			continue
		}
		// The snapshot keeps what the records point at: start each line
		// from zeroed ones so that decodeLine has no array to reuse.
		d, info = DomainRecord{}, IPInfo{}
		line.Domain, line.IP = &d, &info
		if _, err := decodeLine(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", where(lineno), err)
		}
		switch line.Kind {
		case "snapshot":
			if s != nil {
				return nil, fmt.Errorf("%s: duplicate header", where(lineno))
			}
			if line.Header == nil {
				return nil, fmt.Errorf("%s: header line without header", where(lineno))
			}
			s = NewSnapshot(line.Header.Date, line.Header.Corpus)
		case "domain":
			if s == nil || line.Domain == nil {
				return nil, fmt.Errorf("%s: domain before header", where(lineno))
			}
			s.AddDomain(*line.Domain)
		case "ip":
			if s == nil || line.IP == nil {
				return nil, fmt.Errorf("%s: ip before header", where(lineno))
			}
			s.AddIP(*line.IP)
		case "footer":
			// Shard files end with a footer line; ignoring it lets a
			// single shard load as an ordinary snapshot.
		default:
			return nil, fmt.Errorf("%s: unknown kind %q", where(lineno), line.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner surfaces stream-level damage (truncated gzip,
		// oversize line) after the last intact line.
		return nil, fmt.Errorf("%s: %w", where(lineno+1), err)
	}
	if s == nil {
		if name != "" {
			return nil, fmt.Errorf("dataset: %s: empty input", name)
		}
		return nil, fmt.Errorf("dataset: empty input")
	}
	return s, nil
}
