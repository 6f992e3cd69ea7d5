package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/netip"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mxmap/internal/asn"
)

// FuzzShardFooter drives the footer rule with arbitrary bytes as the
// last line of a shard whose body is one domain and one IP: Read must
// not panic, and a footer line it accepts is that body's footer — its
// counts and its domain range, whatever its seq.
func FuzzShardFooter(f *testing.F) {
	f.Add([]byte(`{"kind":"footer","footer":{"seq":3,"first_domain":"a.example","last_domain":"z.example","domains":10,"ips":4}}`))
	f.Add([]byte(`{"kind":"footer","footer":{"seq":0,"domains":0,"ips":0}}`))
	f.Add([]byte(`{"kind":"footer","footer":{"seq":-1,"domains":1,"ips":0}}`))
	f.Add([]byte(`{"kind":"domain","domain":{"domain":"x.example","mx":[]}}`))
	f.Add([]byte(`{"kind":"footer"}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})
	f.Add([]byte(`{"kind":"footer","footer":{"seq":7,"first_domain":"a.example","last_domain":"a.example","domains":1,"ips":1}}`))

	body := []byte(`{"kind":"snapshot","header":{"date":"2021-06","corpus":"alexa"}}` + "\n")
	body = appendDomainLine(body, &DomainRecord{Domain: "a.example", MX: []MXObs{{Preference: 10, Exchange: "mx.example"}}})
	body = appendIPLine(body, &IPInfo{Addr: addr("10.0.0.1")})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := Read(bytes.NewReader(append(body[:len(body):len(body)], data...)))
		var l jsonLine
		if err != nil || json.Unmarshal(data, &l) != nil || l.Kind != "footer" {
			return
		}
		if l.Footer == nil {
			t.Fatal("accepted a footer line without a footer")
		}
		if want := (ShardFooter{Seq: l.Footer.Seq, FirstDomain: "a.example", LastDomain: "a.example", Domains: 1, IPs: 1}); *l.Footer != want {
			t.Fatalf("accepted footer %+v after a body of one domain and one ip", *l.Footer)
		}
	})
}

// FuzzRead holds the readers of the snapshot JSONL form to each other:
// for arbitrary bytes, Read and a Stream over the same bytes in a file
// (OpenStream, a ForEach pass, LoadIPs) both fail, or both yield the
// same header, domain records and IP table; and Fsck of that file
// reports a line-level problem, as its first, exactly when ReadFile
// fails, at the same line in the same words. Neither may panic. The
// domain records both yield are also held to a reference that does not
// go through the line codec (jsonDomains): a walk's table of decoded
// tails, which both readers share the code of, must not change what a
// line decodes to.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if _, err := sampleSnapshot().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add([]byte(`{"kind":"snapshot","header":{"date":"d","corpus":"c"}}`))
	f.Add([]byte(`{"kind":"mystery"}`))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{})
	f.Add([]byte(`{"kind":"snapshot"}`)) // header without body
	for _, p := range lineRuleProbes {
		f.Add([]byte(p.text))
	}
	// Tails that repeat: canonical ones under other names and ranks, and
	// a non-canonical one (a repeated member, which the codec declines at
	// its end and encoding/json reads as the last value) twice.
	header := `{"kind":"snapshot","header":{"date":"d","corpus":"c"}}` + "\n"
	f.Add([]byte(header +
		`{"kind":"domain","domain":{"domain":"a.example","rank":3,"mx":[{"pref":10,"exchange":"mx.p.example","addrs":["10.0.0.1","10.0.0.2"]}],"spf":"v=spf1 -all"}}` + "\n" +
		`{"kind":"domain","domain":{"domain":"b.example","mx":[{"pref":10,"exchange":"mx.p.example","addrs":["10.0.0.1","10.0.0.2"]}],"spf":"v=spf1 -all"}}` + "\n" +
		`{"kind":"domain","domain":{"domain":"c.example","rank":1,"mx":[]}}` + "\n" +
		`{"kind":"domain","domain":{"domain":"d.example","rank":2,"mx":[]}}` + "\n"))
	f.Add([]byte(header +
		`{"kind":"domain","domain":{"domain":"a.example","mx":null,"mx":[{"pref":1,"exchange":"x.example"}]}}` + "\n" +
		`{"kind":"domain","domain":{"domain":"b.example","mx":null,"mx":[{"pref":1,"exchange":"x.example"}]}}` + "\n"))

	// One file per fuzz worker process, rewritten per input.
	path := filepath.Join(f.TempDir(), "in.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := Read(bytes.NewReader(data))
		if wantErr == nil && want == nil {
			t.Fatal("nil snapshot without error")
		}
		got, gotErr := streamRead(t, path, data)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("Read error %v, Stream error %v", wantErr, gotErr)
		}
		if rep, err := Fsck(path); err != nil {
			t.Fatal(err)
		} else {
			_, fileErr := ReadFile(path)
			var damage *lineError
			switch {
			case errors.As(fileErr, &damage):
				if len(rep.Problems) == 0 || rep.Problems[0] != damage.where() {
					t.Fatalf("ReadFile: %v; Fsck problems %q", fileErr, rep.Problems)
				}
			case fileErr != nil:
				t.Fatalf("ReadFile error %v is not a line error", fileErr)
			default:
				for _, p := range rep.Problems {
					if strings.HasPrefix(p, "line ") {
						t.Fatalf("ReadFile loads what Fsck calls damage: %q", p)
					}
				}
			}
		}
		if wantErr != nil {
			return
		}
		if got.Date != want.Date || got.Corpus != want.Corpus {
			t.Fatalf("header: Read %s/%s, Stream %s/%s", want.Date, want.Corpus, got.Date, got.Corpus)
		}
		if !reflect.DeepEqual(got.Domains, want.Domains) {
			t.Fatalf("domains:\n Read   %#v\n Stream %#v", want.Domains, got.Domains)
		}
		if ref := jsonDomains(t, data); len(ref)+len(want.Domains) > 0 && !reflect.DeepEqual(want.Domains, ref) {
			t.Fatalf("domains:\n Read           %#v\n json.Unmarshal %#v", want.Domains, ref)
		}
		if !reflect.DeepEqual(got.IPs, want.IPs) {
			t.Fatalf("ips:\n Read   %#v\n Stream %#v", want.IPs, got.IPs)
		}
		st := &Stream{Path: path}
		if ips, err := st.LoadIPs(); err != nil || !reflect.DeepEqual(ips, want.IPs) {
			t.Fatalf("LoadIPs = %#v, %v, Read %#v", ips, err, want.IPs)
		}
	})
}

// jsonDomains decodes the domain records of data, a snapshot the
// readers accept, without the line codec: each line, split as the
// readers' scanner splits it, through json.Unmarshal.
func jsonDomains(t *testing.T, data []byte) []DomainRecord {
	t.Helper()
	var ds []DomainRecord
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		var l jsonLine
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("a line of a snapshot Read accepts: %v", err)
		}
		if l.Kind == "domain" {
			ds = append(ds, *l.Domain)
		}
	}
	return ds
}

// keyProbe is how Merge read a line's kind and sort key before the line
// codec: the reference for the key decodeLine returns.
type keyProbe struct {
	Kind   string `json:"kind"`
	Domain struct {
		Domain string `json:"domain"`
	} `json:"domain"`
	IP struct {
		Addr string `json:"addr"`
	} `json:"ip"`
}

// usedRecords returns records as a stream pass leaves them after an
// earlier line: every field set, slices with spare capacity.
func usedRecords() (*DomainRecord, *IPInfo) {
	d := &DomainRecord{
		Domain: "previous.example", Rank: 7, SPF: "v=spf1 -all", Delegation: DelegationLame,
		MX: []MXObs{
			{Preference: 1, Exchange: "a.previous.example", Addrs: []netip.Addr{addr("192.0.2.1"), addr("192.0.2.2")}, Dangling: true},
			{Preference: 2, Exchange: "b.previous.example", Addrs: []netip.Addr{addr("192.0.2.3")}},
			{Preference: 3, Exchange: "c.previous.example"},
		},
	}
	info := &IPInfo{
		Addr: addr("192.0.2.9"), ASN: 64500, ASName: "PREVIOUS", HasCensys: true, Port25Open: true, Parked: true,
		Scan: &ScanInfo{Banner: "previous ESMTP", BannerHost: "previous", EHLOHost: "previous", STARTTLS: true,
			CertPresent: true, CertValid: true, CertFingerprint: "ff", CertNames: []string{"previous"}, TLSFailed: true},
	}
	return d, info
}

// FuzzLineDecode holds the hand-written line decoder to encoding/json:
// for arbitrary bytes it either declines, and decodeLine then is
// json.Unmarshal into a jsonLine, or it yields the record, kind and
// merge key encoding/json yields — into used records, into fresh ones
// and on a bare walk alike — for a line the encoder writes back byte
// for byte. A walk's table of decoded tails may only make that faster:
// each input is decoded cold (no table), through a table warmed by the
// input itself and through one warmed by the input's tail under
// another name and rank (warmTables), each way, and every decode must
// give what the cold one gives; a domain line whose tail the table
// holds must be looked up in it, not added again.
func FuzzLineDecode(f *testing.F) {
	for _, e := range lineEdgeShapes {
		f.Add([]byte(e.line))
	}
	for _, line := range bytes.Split(snapshotBytes(f, sampleSnapshot()), []byte("\n")) {
		f.Add(line)
	}
	// The boundaries the kernel tells apart by hand: an octet past 255
	// or with a leading zero, an empty octet, three and five parts, a
	// preference past 65535 or with a leading zero, and every canonical
	// shape cut off at each byte, inside each of its literals among them.
	for _, a := range []string{"256.0.0.1", "01.2.3.4", "1..2.3", "1.2.3", "1.2.3.4.5", "0.0.0.0", "255.255.255.255", "1.2.3.4."} {
		f.Add([]byte(`{"kind":"domain","domain":{"domain":"a.example","mx":[{"pref":10,"exchange":"mx.a.example","addrs":["` + a + `"]}]}}`))
		f.Add([]byte(`{"kind":"ip","ip":{"addr":"` + a + `","has_censys":true,"port25_open":false}}`))
	}
	for _, pref := range []string{"65535", "65536", "065535", "0", "00"} {
		f.Add([]byte(`{"kind":"domain","domain":{"domain":"a.example","mx":[{"pref":` + pref + `,"exchange":"mx.a.example"}]}}`))
	}
	for _, e := range lineEdgeShapes {
		for n := 1; e.canonical && n < len(e.line); n++ {
			f.Add([]byte(e.line[:n]))
		}
	}
	// Tails the kernel walks to their end before it declines them: a
	// repeated member, and bytes after the closing braces.
	f.Add([]byte(`{"kind":"domain","domain":{"domain":"a.example","rank":1,"mx":null,"mx":[{"pref":1,"exchange":"x.example"}]}}`))
	f.Add([]byte(`{"kind":"domain","domain":{"domain":"a.example","mx":[],"spf":"v=spf1"}} `))

	f.Fuzz(func(t *testing.T, data []byte) {
		var want jsonLine
		wantErr := json.Unmarshal(data, &want)

		d, info := usedRecords()
		kind, key, ok := decodeCanonical(data, d, info, nil)
		if wkind, wkey, wok := decodeCanonical(data, nil, nil, nil); wok != ok || (ok && (wkind != kind || !bytes.Equal(wkey, key))) {
			t.Fatalf("walk = (%q, %q, %v), decode = (%q, %q, %v)", wkind, wkey, wok, kind, key, ok)
		}
		if !ok {
			for _, w := range warmTables(data) {
				d, info := usedRecords()
				got := jsonLine{Domain: d, IP: info}
				_, _, err := decodeLine(data, &got, w.table())
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("declined line, table %s: decodeLine error %v, json.Unmarshal error %v", w.name, err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("declined line, table %s: decodeLine = %+v, json.Unmarshal = %+v", w.name, got, want)
				}
			}
			return
		}

		if wantErr != nil {
			t.Fatalf("accepted a line json.Unmarshal rejects: %v", wantErr)
		}
		var probe keyProbe
		if err := json.Unmarshal(data, &probe); err != nil {
			t.Fatalf("accepted a line the merge probe rejects: %v", err)
		}
		if want.Kind != kind || probe.Kind != kind || want.Header != nil || want.Footer != nil {
			t.Fatalf("kind %q, json.Unmarshal = %+v", kind, want)
		}
		fresh := jsonLine{Domain: new(DomainRecord), IP: new(IPInfo)}
		if fkey, _, err := decodeLine(data, &fresh, nil); err != nil || fresh.Kind != kind || !bytes.Equal(fkey, key) {
			t.Fatalf("decodeLine = (%q, %q, %v), want (%q, %q)", fresh.Kind, fkey, err, kind, key)
		}
		var again []byte
		switch kind {
		case "domain":
			if want.Domain == nil || want.IP != nil || string(key) != probe.Domain.Domain {
				t.Fatalf("domain line with key %q: json.Unmarshal = %+v, probe %+v", key, want, probe)
			}
			if !reflect.DeepEqual(d, want.Domain) || !reflect.DeepEqual(fresh.Domain, want.Domain) {
				t.Fatalf("domain record\n used  %#v\n fresh %#v\n want  %#v", d, fresh.Domain, want.Domain)
			}
			again = appendDomainLine(nil, d)
		case "ip":
			if want.IP == nil || want.Domain != nil || string(key) != probe.IP.Addr {
				t.Fatalf("ip line with key %q: json.Unmarshal = %+v, probe %+v", key, want, probe)
			}
			if !reflect.DeepEqual(info, want.IP) || !reflect.DeepEqual(fresh.IP, want.IP) {
				t.Fatalf("ip record\n used  %#v\n fresh %#v\n want  %#v", info, fresh.IP, want.IP)
			}
			again = appendIPLine(nil, info)
		default:
			t.Fatalf("accepted kind %q", kind)
		}
		if string(again) != string(data)+"\n" {
			t.Fatalf("accepted line is not what the encoder writes:\n in  %s\n out %s", data, again)
		}

		for _, w := range warmTables(data) {
			for _, way := range []string{"used", "fresh", "bare"} {
				var d *DomainRecord
				var info *IPInfo
				switch way {
				case "used":
					d, info = usedRecords()
				case "fresh":
					d, info = new(DomainRecord), new(IPInfo)
				}
				tab := w.table()
				held := len(tab)
				wkind, wkey, wok := decodeCanonical(data, d, info, tab)
				if !wok || wkind != kind || !bytes.Equal(wkey, key) {
					t.Fatalf("table %s, %s records: (%q, %q, %v), cold (%q, %q, true)", w.name, way, wkind, wkey, wok, kind, key)
				}
				if kind == "domain" && held > 0 && len(tab) != held {
					t.Fatalf("table %s, %s records: a held tail was added again (%d entries, was %d)", w.name, way, len(tab), held)
				}
				if (d != nil && !reflect.DeepEqual(d, want.Domain) && kind == "domain") || (info != nil && kind == "ip" && !reflect.DeepEqual(info, want.IP)) {
					t.Fatalf("table %s, %s records:\n domain %#v\n ip     %#v\n want   %+v", w.name, way, d, info, want)
				}
			}
		}
	})
}

// warmTable names a way to warm a walk's table of decoded tails before
// a line is decoded through it.
type warmTable struct {
	name  string
	table func() tailTable // a new table, warmed
}

// warmTables returns the tables FuzzLineDecode decodes line through:
// warmed by line itself, and by line's tail under another name and rank
// (when line has the head of a domain line), each by a walk that stores
// the record and by one that stores none.
func warmTables(line []byte) []warmTable {
	warm := func(with []byte, store bool) func() tailTable {
		return func() tailTable {
			tab := make(tailTable)
			if store {
				decodeCanonical(with, new(DomainRecord), new(IPInfo), tab)
			} else {
				decodeCanonical(with, nil, nil, tab)
			}
			return tab
		}
	}
	ws := []warmTable{{"self/stored", warm(line, true)}, {"self/bare", warm(line, false)}}
	if tail, rank, ok := splitDomainLine(line); ok {
		other := `{"kind":"domain","domain":{"domain":"tail.other.example","rank":1`
		if rank == 1 {
			other = `{"kind":"domain","domain":{"domain":"tail.other.example","rank":2`
		}
		with := append([]byte(other), tail...)
		ws = append(ws, warmTable{"other/stored", warm(with, true)}, warmTable{"other/bare", warm(with, false)})
	}
	return ws
}

// splitDomainLine returns the tail of a line that starts as a canonical
// domain line, the bytes after its name and rank, and its rank.
func splitDomainLine(line []byte) (tail []byte, rank uint64, ok bool) {
	const head = `{"kind":"domain","domain":{"domain":`
	if !bytes.HasPrefix(line, []byte(head)) {
		return nil, 0, false
	}
	c := cursor{b: line, i: len(head)}
	if _, ok := c.str(); !ok {
		return nil, 0, false
	}
	if string(line[c.i:min(c.i+8, len(line))]) == `,"rank":` {
		c.i += 8
		if rank, ok = c.positive(math.MaxInt); !ok {
			return nil, 0, false
		}
	}
	return line[c.i:], rank, true
}

// FuzzLineEncode holds the append encoders to encoding/json byte for
// byte, over headers and records built from arbitrary field values:
// strings that need escaping, invalid UTF-8, IPv6 and zero addresses,
// nil against empty slices, a Scan that is present but empty.
func FuzzLineEncode(f *testing.F) {
	f.Add("netflix.example", 12, uint16(5), "aspmx.l.google.example", []byte{172, 217, 0, 26, 172, 217, 0, 27}, "v=spf1 -all", "", uint32(15169), "GOOGLE", "mx.google.example ESMTP ready", "abc123", uint16(0xffff))
	f.Add("", 0, uint16(0), "", []byte{}, "", "", uint32(0), "", "", "", uint16(0))
	f.Add("a<b>&c.example", -3, uint16(65535), "quote\"back\\slash", []byte{1, 2, 3}, "caf\u00e9 \u2028 \xff\xfe", DelegationStaleGlue, uint32(4294967295), "tab\there", "220 \x00\x1f\x7f", "\u00fc", uint16(0x0155))
	f.Add("v6.example", 1, uint16(10), "mx.v6.example", []byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 1, 2, 3, 4}, "", DelegationLame, uint32(1), "V6", "", "", uint16(0x0aaa))

	f.Fuzz(func(t *testing.T, domain string, rank int, pref uint16, exchange string, addrBytes []byte, spf, delegation string,
		origin uint32, asName, banner, fingerprint string, shape uint16) {
		bit := func(n uint) bool { return shape>>n&1 == 1 }
		// addrBytes spells addresses: four bytes each, sixteen when bit 0
		// is set; a remainder spells the zero Addr.
		size := 4
		if bit(0) {
			size = 16
		}
		var addrs []netip.Addr
		for len(addrBytes) >= size {
			a, _ := netip.AddrFromSlice(addrBytes[:size])
			addrs, addrBytes = append(addrs, a), addrBytes[size:]
		}
		if len(addrBytes) > 0 {
			addrs = append(addrs, netip.Addr{})
		}

		d := DomainRecord{Domain: domain, Rank: rank, SPF: spf, Delegation: delegation}
		switch {
		case bit(1):
			d.MX = []MXObs{}
		case bit(2):
			d.MX = []MXObs{
				{Preference: pref, Exchange: exchange, Addrs: addrs, Dangling: bit(3)},
				{Preference: pref + 1, Exchange: spf, Addrs: []netip.Addr{}},
				{Exchange: banner, Addrs: addrs[:len(addrs)/2], Dangling: bit(4)},
			}
		}
		info := IPInfo{ASN: asn.ASN(origin), ASName: asName, HasCensys: bit(5), Port25Open: bit(6), Parked: bit(7)}
		if len(addrs) > 0 {
			info.Addr = addrs[0]
		}
		if bit(8) {
			info.Scan = &ScanInfo{}
		}
		if bit(9) {
			info.Scan = &ScanInfo{Banner: banner, BannerHost: exchange, EHLOHost: domain, STARTTLS: bit(10),
				CertPresent: bit(11), CertValid: bit(12), CertFingerprint: fingerprint, TLSFailed: bit(13)}
			switch {
			case bit(14):
				info.Scan.CertNames = []string{}
			case bit(15):
				info.Scan.CertNames = []string{exchange, "", fingerprint}
			}
		}

		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		check := func(what string, got []byte, v any, encode func(any) error) {
			t.Helper()
			want.Reset()
			if err := encode(v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s:\n got  %s\n want %s", what, got, want.Bytes())
			}
		}
		marshal := func(v any) error {
			raw, err := json.Marshal(v)
			want.Write(raw)
			return err
		}
		check("appendHeaderLine", appendHeaderLine(nil, spf, asName), jsonLine{Kind: "snapshot", Header: &snapshotHeader{Date: spf, Corpus: asName}}, enc.Encode)
		check("appendDomainLine", appendDomainLine(nil, &d), jsonLine{Kind: "domain", Domain: &d}, enc.Encode)
		check("appendIPLine", appendIPLine(nil, &info), jsonLine{Kind: "ip", IP: &info}, enc.Encode)
		check("appendDomainRecord", appendDomainRecord(nil, &d), &d, marshal)
		check("appendIPRecord", appendIPRecord(nil, &info), &info, marshal)

		// What the encoders write from plain strings, IPv4 addresses and
		// a rank that is not negative is canonical, and the kernel takes
		// it.
		if canonicalDomain(&d) {
			requireKernelTakes(t, bytes.TrimSuffix(appendDomainLine(nil, &d), []byte("\n")))
		}
		if canonicalIP(&info) {
			requireKernelTakes(t, bytes.TrimSuffix(appendIPLine(nil, &info), []byte("\n")))
		}
	})
}

// allPlain reports whether every byte of every string is plain.
func allPlain(ss ...string) bool {
	for _, s := range ss {
		for i := 0; i < len(s); i++ {
			if !plain[s[i]] {
				return false
			}
		}
	}
	return true
}

// canonicalDomain reports whether d encodes to a canonical line: plain
// strings, IPv4 addresses and a rank that is not negative.
func canonicalDomain(d *DomainRecord) bool {
	if d.Rank < 0 || !allPlain(d.Domain, d.SPF, d.Delegation) {
		return false
	}
	for _, mx := range d.MX {
		if !allPlain(mx.Exchange) {
			return false
		}
		for _, a := range mx.Addrs {
			if !a.Is4() {
				return false
			}
		}
	}
	return true
}

// canonicalIP is canonicalDomain for an IP record.
func canonicalIP(info *IPInfo) bool {
	if !info.Addr.Is4() || !allPlain(info.ASName) {
		return false
	}
	if s := info.Scan; s != nil {
		return allPlain(s.Banner, s.BannerHost, s.EHLOHost, s.CertFingerprint) && allPlain(s.CertNames...)
	}
	return true
}
