package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/serve"
)

// The traffic mix of both serving workloads: per hundred requests, 90
// lookups of domains in the snapshot, 8 of domains that are not, and 2
// market-share summaries.
const (
	mixHitPct  = 90
	mixMissPct = 8
	fullCheckN = 64 // one response in 64 is decoded and compared in full
)

type reqKind uint8

const (
	kindHit reqKind = iota
	kindMiss
	kindShare
)

// requestTable holds every request the generator can send, formatted
// once: the hot loop writes bytes it did not build.
type requestTable struct {
	names     []string
	hits      [][]byte
	missNames []string
	misses    [][]byte
	share     []byte
}

func formatGet(target string) []byte {
	return []byte("GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

func newRequestTable(names []string) *requestTable {
	t := &requestTable{names: names, share: formatGet("/v1/share?top=10")}
	t.hits = make([][]byte, len(names))
	for i, n := range names {
		t.hits[i] = formatGet("/v1/domain?name=" + n)
	}
	const misses = 1024
	for i := 0; i < misses; i++ {
		n := fmt.Sprintf("absent%06d.invalid", i)
		t.missNames = append(t.missNames, n)
		t.misses = append(t.misses, formatGet("/v1/domain?name="+n))
	}
	return t
}

// pick draws the next request of the mix from the connection's stream.
func (t *requestTable) pick(rng *rand.Rand) (kind reqKind, name string, req []byte) {
	switch p := rng.IntN(100); {
	case p < mixHitPct:
		i := rng.IntN(len(t.hits))
		return kindHit, t.names[i], t.hits[i]
	case p < mixHitPct+mixMissPct:
		i := rng.IntN(len(t.misses))
		return kindMiss, t.missNames[i], t.misses[i]
	}
	return kindShare, "", t.share
}

// refAtt is the offline attribution of one domain, as the benchmark's
// own inference over the snapshot file computed it.
type refAtt struct {
	primary   string
	credits   map[string]float64
	hasSMTP   bool
	untrusted bool
}

// reference is the expected content of one snapshot's answers.
type reference struct {
	atts    map[string]refAtt
	domains int
}

// buildReference infers the snapshot at path the way the service does
// and keeps every attribution. rotate (-break-check) files each
// attribution under the next domain's name, so full checks must fail.
func buildReference(path string, cfg core.Config, rotate bool) (*reference, error) {
	st, err := dataset.OpenStream(path)
	if err != nil {
		return nil, err
	}
	ref := &reference{atts: make(map[string]refAtt)}
	var order []string
	res, err := core.InferStream(st, core.ApproachPriority, cfg, func(att core.DomainAttribution) {
		ref.atts[att.Domain] = refAtt{att.Primary(), att.Credits, att.HasSMTP, att.Untrusted}
		order = append(order, att.Domain)
	})
	if err != nil {
		return nil, err
	}
	ref.domains = res.NumDomains
	if rotate {
		first := ref.atts[order[0]]
		for i := 0; i < len(order)-1; i++ {
			ref.atts[order[i]] = ref.atts[order[i+1]]
		}
		ref.atts[order[len(order)-1]] = first
	}
	return ref, nil
}

// checker validates responses. refFor maps the epoch a response names
// to the snapshot that epoch served.
type checker struct {
	refFor func(epoch uint64) *reference
}

// cheap checks what every response is checked for: the status and the
// leading "domain"/"found" bytes. scratch is reused across calls.
func (c *checker) cheap(kind reqKind, name string, status int, body, scratch []byte, anyFound bool) ([]byte, error) {
	if status != 200 {
		return scratch, fmt.Errorf("status %d for %s", status, name)
	}
	scratch = scratch[:0]
	switch kind {
	case kindShare:
		scratch = append(scratch, `{"top":[{"company":`...)
	default:
		scratch = append(append(append(scratch, `{"domain":"`...), name...), `","found":`...)
		switch {
		case anyFound:
		case kind == kindHit:
			scratch = append(scratch, "true"...)
		default:
			scratch = append(scratch, "false"...)
		}
	}
	if !bytes.HasPrefix(body, scratch) {
		return scratch, fmt.Errorf("body of %s starts %q, want %q", name, truncate(body, 60), scratch)
	}
	return scratch, nil
}

// full decodes a lookup response and compares it with the offline
// attribution of the epoch it names.
func (c *checker) full(name string, body []byte) error {
	var got serve.LookupResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	ref := c.refFor(got.Snapshot.Epoch)
	if ref == nil {
		return fmt.Errorf("%s: answer names epoch %d, which was never published", name, got.Snapshot.Epoch)
	}
	want, found := ref.atts[name]
	switch {
	case got.Domain != name:
		return fmt.Errorf("%s: answer is for %q", name, got.Domain)
	case got.Stale:
		return fmt.Errorf("%s: stale answer from a healthy service", name)
	case got.Snapshot.Domains != ref.domains:
		return fmt.Errorf("%s: snapshot has %d domains, want %d", name, got.Snapshot.Domains, ref.domains)
	case got.Found != found:
		return fmt.Errorf("%s: found=%v in epoch %d, want %v", name, got.Found, got.Snapshot.Epoch, found)
	case !found:
		return nil
	case got.Primary != want.primary || got.HasSMTP != want.hasSMTP || got.Untrusted != want.untrusted:
		return fmt.Errorf("%s: epoch %d answered primary=%q smtp=%v untrusted=%v, offline says %q %v %v",
			name, got.Snapshot.Epoch, got.Primary, got.HasSMTP, got.Untrusted, want.primary, want.hasSMTP, want.untrusted)
	case len(got.Credits) != len(want.credits):
		return fmt.Errorf("%s: %d credits, offline says %d", name, len(got.Credits), len(want.credits))
	}
	for id, v := range want.credits {
		if got.Credits[id] != v {
			return fmt.Errorf("%s: credit %s=%v, offline says %v", name, id, got.Credits[id], v)
		}
	}
	return nil
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// client is one keep-alive connection of the generator. It honours
// Connection: close and reconnects; every buffer is reused.
type client struct {
	addr       string
	conn       net.Conn
	br         *bufio.Reader
	body       []byte
	scratch    []byte
	reconnects int64
	bytesIn    int64
}

func (c *client) connect() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 16<<10)
	} else {
		c.br.Reset(conn)
	}
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

var (
	hdrContentLength = []byte("content-length:")
	hdrConnection    = []byte("connection:")
	tokClose         = []byte("close")
)

// do sends one pre-formatted request and reads the response. The
// returned body is valid until the next call.
func (c *client) do(req []byte) (status int, body []byte, err error) {
	if c.conn == nil {
		again := c.br != nil
		if err := c.connect(); err != nil {
			return 0, nil, err
		}
		if again {
			c.reconnects++
		}
	}
	if _, err := c.conn.Write(req); err != nil {
		c.close()
		return 0, nil, err
	}
	status, body, closing, err := c.readResponse()
	if err != nil || closing {
		c.close()
	}
	return status, body, err
}

func (c *client) readResponse() (status int, body []byte, closing bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	c.bytesIn += int64(len(line))
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, false, fmt.Errorf("malformed status line %q", truncate(line, 40))
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, false, fmt.Errorf("malformed status line %q", truncate(line, 40))
	}
	length := -1
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, false, err
		}
		c.bytesIn += int64(len(h))
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		switch {
		case hasFoldPrefix(h, hdrContentLength):
			length, err = strconv.Atoi(string(bytes.TrimSpace(h[len(hdrContentLength):])))
			if err != nil || length < 0 {
				return 0, nil, false, fmt.Errorf("malformed content-length %q", h)
			}
		case hasFoldPrefix(h, hdrConnection):
			closing = bytes.EqualFold(bytes.TrimSpace(h[len(hdrConnection):]), tokClose)
		}
	}
	if length < 0 {
		return 0, nil, false, fmt.Errorf("response without content-length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length, 2*length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, false, err
	}
	c.bytesIn += int64(length)
	return status, c.body, closing, nil
}

func hasFoldPrefix(b, lowerPrefix []byte) bool {
	return len(b) >= len(lowerPrefix) && bytes.EqualFold(b[:len(lowerPrefix)], lowerPrefix)
}

// loadResult is what one generator phase observed.
type loadResult struct {
	wallS      float64
	sent       int64
	ok         int64
	failed     int64
	reconnects int64
	bytesIn    int64
	lat        []uint32 // ns, sorted; one per correct response
	late       []uint32 // ns, sorted; paced phases only
	problems   []string
}

func (r *loadResult) rps() float64 { return float64(r.ok) / r.wallS }

func (r *loadResult) p50us() float64 { return percentileNS(r.lat, 0.5) / 1e3 }

// loadSpec describes one generator phase.
type loadSpec struct {
	addr     string
	conns    int
	duration time.Duration
	table    *requestTable
	check    *checker
	seed     uint64
	// rate, when positive, paces the phase as an open loop at that many
	// requests per second in total; zero is the closed loop with no
	// think time.
	rate float64
	// fullCheckEvery overrides fullCheckN (the swap phase checks every
	// answer in full).
	fullCheckEvery int
	// anyFound relaxes the cheap check to either "found" value: while
	// snapshots swap, a domain removed from one of them is a miss in
	// some epochs. The full check still knows which.
	anyFound bool
	// skipCheck is for the generator-floor phase, whose fixed answers
	// have nothing to check beyond the status.
	skipCheck bool
	// stop, when non-nil, ends the phase early when closed.
	stop <-chan struct{}
}

// pacedSample is the open-loop accounting of one request: latency runs
// from when the request was due, not from when the generator got round
// to sending it, so a stall counts against every request it delayed;
// lateness is how far behind schedule the send was.
func pacedSample(due, sent, done time.Time) (latencyNS, lateNS int64) {
	lateNS = sent.Sub(due).Nanoseconds()
	if lateNS < 0 {
		lateNS = 0
	}
	return done.Sub(due).Nanoseconds(), lateNS
}

// dueAt is request k's slot on a connection that sends one request
// every interval.
func dueAt(start time.Time, k int, interval time.Duration) time.Time {
	return start.Add(time.Duration(k) * interval)
}

func clampNS(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ns)
}

// runLoad drives spec.conns connections until the duration is over and
// merges what they saw.
func runLoad(spec loadSpec) loadResult {
	type connResult struct {
		loadResult
		c *client
	}
	results := make([]connResult, spec.conns)
	every := spec.fullCheckEvery
	if every <= 0 {
		every = fullCheckN
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(spec.duration)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			c := &client{addr: spec.addr}
			res.c = c
			defer c.close()
			rng := rand.New(rand.NewPCG(spec.seed, uint64(i)+1))
			res.lat = make([]uint32, 0, 1<<16)
			var interval time.Duration
			if spec.rate > 0 {
				interval = time.Duration(float64(spec.conns) / spec.rate * float64(time.Second))
			}
			for k := 0; ; k++ {
				var due time.Time
				if interval > 0 {
					due = dueAt(start, k, interval)
					if !due.Before(deadline) {
						return
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				if spec.stop != nil {
					select {
					case <-spec.stop:
						return
					default:
					}
				}
				kind, name, req := spec.table.pick(rng)
				sent := time.Now()
				if interval == 0 && !sent.Before(deadline) {
					return
				}
				res.sent++
				status, body, err := c.do(req)
				done := time.Now()
				if err == nil && !spec.skipCheck {
					c.scratch, err = spec.check.cheap(kind, name, status, body, c.scratch, spec.anyFound)
					if err == nil && kind != kindShare && res.sent%int64(every) == 0 {
						err = spec.check.full(name, body)
					}
				} else if err == nil && status != 200 {
					err = fmt.Errorf("status %d", status)
				}
				if err != nil {
					res.failed++
					if len(res.problems) < 3 {
						res.problems = append(res.problems, err.Error())
					}
					continue
				}
				res.ok++
				if interval > 0 {
					lat, late := pacedSample(due, sent, done)
					res.lat = append(res.lat, clampNS(lat))
					res.late = append(res.late, clampNS(late))
				} else {
					res.lat = append(res.lat, clampNS(done.Sub(sent).Nanoseconds()))
				}
			}
		}(i)
	}
	wg.Wait()
	out := loadResult{wallS: time.Since(start).Seconds()}
	for i := range results {
		r := &results[i]
		out.sent += r.sent
		out.ok += r.ok
		out.failed += r.failed
		out.reconnects += r.c.reconnects
		out.bytesIn += r.c.bytesIn
		out.lat = append(out.lat, r.lat...)
		out.late = append(out.late, r.late...)
		out.problems = append(out.problems, r.problems...)
	}
	slices.Sort(out.lat)
	slices.Sort(out.late)
	return out
}

// account folds a phase's tallies into the report.
func (r *loadResult) account(rep *report, phase string) {
	rep.Attempted += r.sent
	if r.failed > 0 {
		rep.fail(r.failed, "%s: %d of %d requests failed, e.g. %v", phase, r.failed, r.sent, r.problems)
	}
}
