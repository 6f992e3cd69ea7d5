// Package dataset defines the measurement data model shared by the
// collection pipeline and the inference methodology: per-domain DNS
// observations (the OpenINTEL substitute) joined with per-IP SMTP scan
// observations (the Censys substitute), grouped into dated snapshots.
//
// It also implements the data-availability breakdown the paper reports in
// Table 4, which partitions a corpus by how much of the signal chain
// (MX -> IP -> scan -> certificate/banner) was observable.
//
// A snapshot is read through Source: LoadIPs returns its IP table and
// ForEach makes one pass over its records, each record readable until
// its callback returns. *Snapshot (in memory) and *Stream (a file) both
// implement it, and the readers — BreakdownOf, core's inference — are
// written once, over Source. A record in memory is exactly its line on
// disk: what a collection run learned about its own health is the run's
// Health report, not a field of any record.
package dataset

import (
	"bufio"
	"bytes"
	"errors"
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
}

// PrimaryMX returns the most-preferred MX records: all records sharing
// the lowest preference value. The paper assigns domain credit to the
// provider(s) of exactly this set.
func (d *DomainRecord) PrimaryMX() []MXObs {
	return d.AppendPrimaryMX(nil)
}

// AppendPrimaryMX appends PrimaryMX's records to dst, so that a caller
// going through many domains can reuse one slice; nil when d has no MX
// and dst is nil.
func (d *DomainRecord) AppendPrimaryMX(dst []MXObs) []MXObs {
	if len(d.MX) == 0 {
		return dst
	}
	best := d.MX[0].Preference
	for _, mx := range d.MX[1:] {
		if mx.Preference < best {
			best = mx.Preference
		}
	}
	for _, mx := range d.MX {
		if mx.Preference == best {
			dst = append(dst, mx)
		}
	}
	return dst
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
}

// Snapshot is one dated measurement of one corpus.
//
// Concurrency contract: the mutators (AddDomain, AddIP, SortDomains)
// synchronize on one internal mutex, so concurrent producers may share
// one snapshot. Reads of the exported Domains/IPs fields (including
// WriteTo, ForEach, LoadIPs and the analysis passes) are NOT
// synchronized; they require that all mutation has quiesced, which is
// the natural state once collection finishes.
type Snapshot struct {
	// Date is the snapshot label, e.g. "2021-06".
	Date string `json:"date"`
	// Corpus identifies the domain list: "alexa", "com" or "gov".
	Corpus string `json:"corpus"`
	// Domains holds the per-domain DNS observations.
	Domains []DomainRecord `json:"-"`
	// IPs indexes scan observations by address string.
	IPs map[string]IPInfo `json:"-"`
	// Health is the collection run's report, set by scan.Collector's
	// Collect; nil for a snapshot read from a file.
	Health *Health `json:"-"`
	// Stats is Health's Stats, kept apart only because the benchmark
	// harness reads it.
	Stats CollectionStats `json:"-"`

	// mu guards Domains/IPs mutation.
	mu sync.Mutex
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
// other mutators.
func (s *Snapshot) AddDomain(d DomainRecord) {
	s.mu.Lock()
	s.Domains = append(s.Domains, d)
	s.mu.Unlock()
}

// AddIP records an IP observation, replacing any previous one. Safe for
// concurrent use with the other mutators.
func (s *Snapshot) AddIP(info IPInfo) {
	s.mu.Lock()
	s.IPs[info.Addr.String()] = info
	s.mu.Unlock()
}

// SortDomains orders domains lexicographically for deterministic output.
func (s *Snapshot) SortDomains() {
	s.mu.Lock()
	sort.Slice(s.Domains, func(i, j int) bool { return s.Domains[i].Domain < s.Domains[j].Domain })
	s.mu.Unlock()
}

// ErrStop may be returned from a ForEach callback to end iteration early
// without an error.
var ErrStop = errors.New("dataset: stop iteration")

// Source is a snapshot's records behind two reads: a pass over the
// records, and the IP table whole. A pass yields the IP section after
// the domains, so a consumer that needs the IP table only once the walk
// is over (core's inference) builds it in the same pass; LoadIPs is for
// one that needs the table before its pass (BreakdownOf, DiffStream).
//
// ForEach calls domain for every domain record, then ip for every IP
// record, each section in the order the source holds it (whatever
// WriteTo or Merge wrote has domains as given and IPs ascending by
// address string). Either callback may be nil to skip that section. A
// record is the callback's to read until it returns: it must not be
// modified, and whatever must outlive the call is copied, MX and
// MX[i].Addrs arrays included. A callback returning ErrStop ends the
// pass successfully; any other error ends it and is returned. Passes may
// run concurrently.
//
// LoadIPs returns the IP section keyed by address string. The caller
// must not modify the map.
type Source interface {
	LoadIPs() (map[string]IPInfo, error)
	ForEach(domain func(*DomainRecord) error, ip func(*IPInfo) error) error
}

// LoadIPs returns the snapshot's own IP table, uncopied. It never fails.
func (s *Snapshot) LoadIPs() (map[string]IPInfo, error) { return s.IPs, nil }

// ForEach walks the snapshot as a Source: domains in slice order, then
// IPs in ascending key order, which is the order WriteTo serializes
// them in. The only errors it returns are the callbacks'.
func (s *Snapshot) ForEach(domain func(*DomainRecord) error, ip func(*IPInfo) error) error {
	if domain != nil {
		for i := range s.Domains {
			if err := domain(&s.Domains[i]); err != nil {
				return endOfPass(err)
			}
		}
	}
	if ip != nil {
		keys := make([]string, 0, len(s.IPs))
		for k := range s.IPs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			info := s.IPs[k]
			if err := ip(&info); err != nil {
				return endOfPass(err)
			}
		}
	}
	return nil
}

// endOfPass is what a pass returns for a callback's error: ErrStop ends
// it cleanly.
func endOfPass(err error) error {
	if err == ErrStop {
		return nil
	}
	return err
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
// scanning is done. A line the stream broke off in the middle of (a
// truncated gzip member) is not handed out as a line: the scan ends with
// the stream's error instead, so the damage is named for what it is.
func newLineScanner(r io.Reader) (*bufio.Scanner, *[]byte) {
	br := &brokenReader{r: r}
	sc := bufio.NewScanner(br)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if atEOF && br.err != nil && bytes.IndexByte(data, '\n') < 0 {
			return 0, nil, br.err
		}
		return bufio.ScanLines(data, atEOF)
	})
	buf := getLineBuf()
	sc.Buffer(*buf, maxLineBytes)
	return sc, buf
}

// brokenReader remembers the error other than io.EOF that ended r.
type brokenReader struct {
	r   io.Reader
	err error
}

func (b *brokenReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
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
	// Lines are appended straight into the writer's free space.
	if _, err := bw.Write(appendHeaderLine(bw.AvailableBuffer(), s.Date, s.Corpus)); err != nil {
		return 0, err
	}
	err := s.ForEach(
		func(d *DomainRecord) error {
			_, err := bw.Write(appendDomainLine(bw.AvailableBuffer(), d))
			return err
		},
		func(info *IPInfo) error {
			_, err := bw.Write(appendIPLine(bw.AvailableBuffer(), info))
			return err
		},
	)
	if err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Read parses a snapshot from the JSONL form written by WriteTo.
func Read(r io.Reader) (*Snapshot, error) {
	return read(r, "")
}

// read materializes the snapshot walkLines decodes from r.
func read(r io.Reader, name string) (*Snapshot, error) {
	var s *Snapshot
	err := walkLines(r, name,
		func(h *snapshotHeader) { s = NewSnapshot(h.Date, h.Corpus) },
		// The snapshot keeps the record, in arrays of its own: the slot
		// refills its arrays, and a hit's are the walk's table's.
		func(d *DomainRecord, _ int) error {
			rec := *d
			rec.MX = ownMX(d.MX)
			s.AddDomain(rec)
			return nil
		},
		func(info *IPInfo) error { s.AddIP(*info); return nil },
	)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// walkLines is the one line loop over the JSONL form of a snapshot,
// behind Read, ReadFile, every Stream pass and fsck. It decodes each line
// once, holds it to lineRules, and hands the header to header, domain
// records to domain with their tail (see Stream.ForEachTail) and IP records to
// ip; a nil callback leaves its lines checked but not stored. ErrStop
// from a callback ends the walk successfully. A line in error ends it
// with a *lineError, into which name (usually a file path) is woven, so
// "unexpected EOF" from a truncated gzip stream arrives as "dataset:
// <path>: line N: unexpected EOF" instead of a bare error with no idea
// where the damage is.
//
// Lines are scanned, decoded and checked on a goroutine of their own
// (decodeAhead), walkBatch records at a time, while this one runs the
// callbacks in file order; a line's error is delivered behind the
// records before it, so the callbacks run for exactly the lines a
// serial loop would have reached. At most walkBatches batches exist
// (384 records): the one the callbacks are reading, and the ones
// decoded ahead of it. The records handed out are the batches' slots,
// refilled batch after batch (see decodeLine), and a domain record's MX
// and address arrays are the slot's or, for a tail the walk's table
// holds, the table's: a callback that keeps a record copies them. The
// decoder has exited, and has let go of r and of its line buffer, when
// walkLines returns.
func walkLines(r io.Reader, name string, header func(*snapshotHeader), domain func(*DomainRecord, int) error, ip func(*IPInfo) error) error {
	var batches [walkBatches]*lineBatch
	// filled and free each have room for every batch, so a send on
	// either never blocks.
	filled := make(chan *lineBatch, walkBatches)
	free := make(chan *lineBatch, walkBatches)
	for i := range batches {
		batches[i] = lineBatchPool.Get().(*lineBatch)
		free <- batches[i]
	}
	stop := make(chan struct{})
	go decodeAhead(r, name, header != nil, domain != nil, ip != nil, free, filled, stop)
	defer func() {
		close(stop)
		for range filled { // until the decoder has closed it, on its way out
		}
		for _, b := range batches {
			lineBatchPool.Put(b)
		}
	}()
	for b := range filled {
		for i := range b.slots[:b.n] {
			if err := b.slots[i].deliver(header, domain, ip); err != nil {
				return endOfPass(err)
			}
		}
		if b.err != nil {
			return b.err
		}
		free <- b
	}
	return nil
}

// walkBatch and walkBatches size walkLines' decode-ahead window: a batch
// long enough that its two channel operations cost nothing per line, and
// three of them, so the decoder has one to fill and one in hand while
// the callbacks read the third. A pass of the 20 000-domain benchmark
// read the same at 128, 256 and 512 records a batch; the short window
// costs a pass that finds the pool emptied the least to set up.
const (
	walkBatch      = 128
	walkBatches    = 3
	walkBatchFirst = 8 // doubled batch by batch up to walkBatch
)

// lineBatch is a run of decoded lines on its way from decodeAhead to
// the callbacks: n slots in file order, then the error that ended the
// walk there, if one did.
type lineBatch struct {
	slots [walkBatch]lineSlot
	n     int
	err   error
	// mx and addrs are where a new batch's slots start out: room for
	// slotMX MX records of slotAddrs addresses each, which holds the
	// small records most of a corpus is made of, so that a batch costs
	// one allocation, not one per array per slot. A slot that outgrows
	// its share leaves it behind for good.
	mx    [walkBatch * slotMX]MXObs
	addrs [walkBatch * slotMX * slotAddrs]netip.Addr
}

const slotMX, slotAddrs = 2, 2

func newLineBatch() *lineBatch {
	b := new(lineBatch)
	for i := range b.mx {
		b.mx[i].Addrs = b.addrs[i*slotAddrs : i*slotAddrs : (i+1)*slotAddrs]
	}
	for i := range b.slots {
		b.slots[i].own = b.mx[i*slotMX : i*slotMX : (i+1)*slotMX]
	}
	return b
}

// lineSlot holds one line a callback is owed: its kind, and the record
// in the member of that kind. Kind "" owes nothing.
type lineSlot struct {
	kind   string
	header *snapshotHeader
	domain DomainRecord
	// tail is the domain record's tail ID, NoTail when it has none.
	tail int
	// own is the MX array the slot decodes a domain line into: its
	// record's MX is lent the table's array on a hit, and a line decoded
	// into a lent array would write over the table.
	own []MXObs
	ip  IPInfo
}

// fill steps rules over raw, the next line, and decodes its record into
// the slot's member of its kind. A line of a kind the walk does not
// want (want* false) is checked and leaves the slot's kind "", as a
// blank line and a shard's footer do. A canonical line refills the
// slot's record in place, so per-line allocation is limited to the
// record's own strings; a kind that is not wanted is walked, not stored.
func (s *lineSlot) fill(rules *lineRules, l *jsonLine, raw []byte, wantHeader, wantDomain, wantIP bool) error {
	s.kind = ""
	l.Domain, l.IP = nil, nil
	if wantDomain {
		s.domain.MX = s.own
		l.Domain = &s.domain
	}
	if wantIP {
		l.IP = &s.ip
	}
	if _, err := rules.step(raw, l); err != nil {
		return err
	}
	switch {
	case l.Kind == "snapshot" && wantHeader:
		s.header = l.Header
	case l.Kind == "domain" && wantDomain:
		s.tail = rules.tail.id
		switch {
		case l.Domain != &s.domain: // a line encoding/json decoded
			s.domain = *l.Domain
		case !rules.tail.lent && cap(s.domain.MX) > cap(s.own):
			s.own = s.domain.MX[:0] // grown: keep it for the next line
		}
	case l.Kind == "ip" && wantIP:
		if l.IP != &s.ip {
			s.ip = *l.IP
		}
	default:
		return nil
	}
	s.kind = l.Kind
	return nil
}

// deliver hands the slot's record to the callback of its kind.
func (s *lineSlot) deliver(header func(*snapshotHeader), domain func(*DomainRecord, int) error, ip func(*IPInfo) error) error {
	switch s.kind {
	case "snapshot":
		header(s.header)
	case "domain":
		return domain(&s.domain, s.tail)
	case "ip":
		return ip(&s.ip)
	}
	return nil
}

var lineBatchPool = sync.Pool{New: func() any { return newLineBatch() }}

// decodeAhead is the decoding half of walkLines: it steps lineRules over
// r to its end or to the first line in error, filling batches from free
// and sending them on filled, which it closes when it returns. A line
// whose section has no callback (want* false) is checked and takes no
// slot. Once stop is closed it returns rather than wait for a free batch.
func decodeAhead(r io.Reader, name string, wantHeader, wantDomain, wantIP bool, free <-chan *lineBatch, filled chan<- *lineBatch, stop <-chan struct{}) {
	defer close(filled)
	sc, lineBuf := newLineScanner(r)
	defer putLineBuf(lineBuf)
	var (
		b     *lineBatch
		l     jsonLine
		rules = lineRules{name: name}
		// fill is how many slots of b are filled before it is sent: few
		// at first, so that a walk which ends at its first record
		// (OpenStream) ends with a few lines decoded in vain, not a
		// windowful.
		fill = walkBatchFirst
	)
	// next takes the batch to fill, false once the walk has stopped.
	next := func() bool {
		select {
		case b = <-free:
			b.n, b.err = 0, nil
			return true
		case <-stop:
			return false
		}
	}
	if !next() {
		return
	}
	for sc.Scan() {
		if b.n == fill {
			filled <- b
			fill = min(2*fill, walkBatch)
			if !next() {
				return
			}
		}
		// The line is decoded into the next slot of b, which it claims
		// if a callback is owed the line.
		slot := &b.slots[b.n]
		if b.err = slot.fill(&rules, &l, sc.Bytes(), wantHeader, wantDomain, wantIP); b.err != nil {
			break
		}
		if slot.kind != "" {
			b.n++
		}
	}
	switch err := sc.Err(); {
	case b.err != nil:
	case err != nil:
		// The scanner surfaces stream-level damage (truncated gzip,
		// oversize line) after the last intact line.
		b.err = rules.cut(err)
	default:
		b.err = rules.end()
	}
	// The last batch: the lines decoded so far, and what ended the walk
	// behind them.
	filled <- b
}
