package dataset

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// lineEdgeShapes are lines at the border of the canonical form. Each is
// either taken by the hand-written decoder or declined to encoding/json
// (canonical says which), and either way decodes to what it decoded to
// when encoding/json read every line: want, or an error holding wantErr.
// They also seed FuzzLineDecode.
var lineEdgeShapes = []struct {
	name      string
	line      string
	canonical bool
	want      jsonLine
	wantErr   string
}{
	{
		name:      "plain domain",
		line:      `{"kind":"domain","domain":{"domain":"a.example","rank":3,"mx":[{"pref":10,"exchange":"mx.a.example","addrs":["192.0.2.1","192.0.2.2"]},{"pref":20,"exchange":"gone.example","dangling":true}],"spf":"v=spf1 -all","delegation":"stale-glue"}}`,
		canonical: true,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example", Rank: 3, SPF: "v=spf1 -all", Delegation: DelegationStaleGlue, MX: []MXObs{
			{Preference: 10, Exchange: "mx.a.example", Addrs: []netip.Addr{addr("192.0.2.1"), addr("192.0.2.2")}},
			{Preference: 20, Exchange: "gone.example", Dangling: true},
		}}},
	},
	{
		name:      "plain ip",
		line:      `{"kind":"ip","ip":{"addr":"192.0.2.1","asn":64500,"as_name":"EXAMPLE","has_censys":true,"port25_open":true,"parked":true,"scan":{"banner":"mx ESMTP","banner_host":"mx","ehlo_host":"mx","starttls":true,"cert_present":true,"cert_valid":true,"cert_fp":"ab","cert_names":["mx",""],"tls_failed":true}}}`,
		canonical: true,
		want: jsonLine{Kind: "ip", IP: &IPInfo{Addr: addr("192.0.2.1"), ASN: 64500, ASName: "EXAMPLE", HasCensys: true, Port25Open: true, Parked: true,
			Scan: &ScanInfo{Banner: "mx ESMTP", BannerHost: "mx", EHLOHost: "mx", STARTTLS: true, CertPresent: true, CertValid: true,
				CertFingerprint: "ab", CertNames: []string{"mx", ""}, TLSFailed: true}}},
	},
	{
		name:      "scan present but empty",
		line:      `{"kind":"ip","ip":{"addr":"0.0.0.0","has_censys":false,"port25_open":false,"scan":{}}}`,
		canonical: true,
		want:      jsonLine{Kind: "ip", IP: &IPInfo{Addr: addr("0.0.0.0"), Scan: &ScanInfo{}}},
	},
	{
		name:      "scan starting at a later member",
		line:      `{"kind":"ip","ip":{"addr":"255.255.255.255","has_censys":true,"port25_open":true,"scan":{"tls_failed":true}}}`,
		canonical: true,
		want:      jsonLine{Kind: "ip", IP: &IPInfo{Addr: addr("255.255.255.255"), HasCensys: true, Port25Open: true, Scan: &ScanInfo{TLSFailed: true}}},
	},
	{
		name:      "mx null is a nil slice",
		line:      `{"kind":"domain","domain":{"domain":"a.example","mx":null}}`,
		canonical: true,
		want:      jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example"}},
	},
	{
		name:      "mx empty is an empty slice",
		line:      `{"kind":"domain","domain":{"domain":"a.example","mx":[]}}`,
		canonical: true,
		want:      jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example", MX: []MXObs{}}},
	},
	{
		name:      "empty domain name",
		line:      `{"kind":"domain","domain":{"domain":"","mx":null}}`,
		canonical: true,
		want:      jsonLine{Kind: "domain", Domain: &DomainRecord{}},
	},
	{
		name: "reordered keys",
		line: `{"domain":{"mx":[{"exchange":"mx.a.example","pref":10}],"domain":"a.example"},"kind":"domain"}`,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example", MX: []MXObs{{Preference: 10, Exchange: "mx.a.example"}}}},
	},
	{
		name: "upper-case Kind",
		line: `{"Kind":"domain","domain":{"domain":"a.example","mx":null}}`,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example"}},
	},
	{
		name: "duplicate keys, last wins",
		line: `{"kind":"ip","kind":"domain","domain":{"domain":"a.example","domain":"b.example","mx":null}}`,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "b.example"}},
	},
	{
		name: "rank zero spelled out",
		line: `{"kind":"domain","domain":{"domain":"a.example","rank":0,"mx":null}}`,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example"}},
	},
	{
		name: "negative rank",
		line: `{"kind":"domain","domain":{"domain":"a.example","rank":-4,"mx":null}}`,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example", Rank: -4}},
	},
	{
		name:    "rank with a leading zero",
		line:    `{"kind":"domain","domain":{"domain":"a.example","rank":07,"mx":null}}`,
		wantErr: "invalid character '7' after object key:value pair",
	},
	{
		name:    "preference out of range",
		line:    `{"kind":"domain","domain":{"domain":"a.example","mx":[{"pref":65536,"exchange":"mx.a.example"}]}}`,
		wantErr: "cannot unmarshal number 65536 into Go struct field",
	},
	{
		name: "addrs spelled out empty",
		line: `{"kind":"domain","domain":{"domain":"a.example","mx":[{"pref":10,"exchange":"mx.a.example","addrs":[]}]}}`,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example", MX: []MXObs{{Preference: 10, Exchange: "mx.a.example", Addrs: []netip.Addr{}}}}},
	},
	{
		name:    "address with a leading zero",
		line:    `{"kind":"domain","domain":{"domain":"a.example","mx":[{"pref":10,"exchange":"mx.a.example","addrs":["01.2.3.4"]}]}}`,
		wantErr: "IPv4 field has octet with leading zero",
	},
	{
		name:    "address octet out of range",
		line:    `{"kind":"ip","ip":{"addr":"1.2.3.256","has_censys":true,"port25_open":false}}`,
		wantErr: "IPv4 field has value >255",
	},
	{
		name: "IPv6 address",
		line: `{"kind":"ip","ip":{"addr":"2001:db8::1","has_censys":true,"port25_open":false}}`,
		want: jsonLine{Kind: "ip", IP: &IPInfo{Addr: addr("2001:db8::1"), HasCensys: true}},
	},
	{
		name: "zero address",
		line: `{"kind":"ip","ip":{"addr":"","has_censys":false,"port25_open":false}}`,
		want: jsonLine{Kind: "ip", IP: &IPInfo{}},
	},
	{
		name: "escaped < in a banner",
		line: `{"kind":"ip","ip":{"addr":"192.0.2.1","has_censys":true,"port25_open":true,"scan":{"banner":"220 <mx>"}}}`,
		want: jsonLine{Kind: "ip", IP: &IPInfo{Addr: addr("192.0.2.1"), HasCensys: true, Port25Open: true, Scan: &ScanInfo{Banner: "220 <mx>"}}},
	},
	{
		name: "raw < and UTF-8 in a banner",
		line: `{"kind":"ip","ip":{"addr":"192.0.2.1","has_censys":true,"port25_open":true,"scan":{"banner":"220 <mx> café"}}}`,
		want: jsonLine{Kind: "ip", IP: &IPInfo{Addr: addr("192.0.2.1"), HasCensys: true, Port25Open: true, Scan: &ScanInfo{Banner: "220 <mx> café"}}},
	},
	{
		name:    "raw control byte in a string",
		line:    "{\"kind\":\"domain\",\"domain\":{\"domain\":\"a\x01.example\",\"mx\":null}}",
		wantErr: "invalid character '\\x01' in string literal",
	},
	{
		name: "false spelled out for an omitempty bool",
		line: `{"kind":"ip","ip":{"addr":"192.0.2.1","has_censys":true,"port25_open":true,"parked":false}}`,
		want: jsonLine{Kind: "ip", IP: &IPInfo{Addr: addr("192.0.2.1"), HasCensys: true, Port25Open: true}},
	},
	{
		name: "trailing space",
		line: `{"kind":"domain","domain":{"domain":"a.example","mx":null}} `,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example"}},
	},
	{
		name:    "trailing garbage",
		line:    `{"kind":"domain","domain":{"domain":"a.example","mx":null}}}`,
		wantErr: "invalid character '}' after top-level value",
	},
	{
		name:    "truncated line",
		line:    `{"kind":"domain","domain":{"domain":"a.example","mx":[{"pref":10,"exchange":"mx.a.exa`,
		wantErr: "unexpected end of JSON input",
	},
	{
		name: "unknown member",
		line: `{"kind":"domain","domain":{"domain":"a.example","mx":null,"extra":1}}`,
		want: jsonLine{Kind: "domain", Domain: &DomainRecord{Domain: "a.example"}},
	},
	{
		name: "domain line without a body",
		line: `{"kind":"domain"}`,
		want: jsonLine{Kind: "domain"},
	},
	{
		name: "header line",
		line: `{"kind":"snapshot","header":{"date":"2021-06","corpus":"alexa"}}`,
		want: jsonLine{Kind: "snapshot", Header: &snapshotHeader{Date: "2021-06", Corpus: "alexa"}},
	},
	{
		name: "footer line",
		line: `{"kind":"footer","footer":{"seq":3,"first_domain":"a.example","last_domain":"z.example","domains":10,"ips":4}}`,
		want: jsonLine{Kind: "footer", Footer: &ShardFooter{Seq: 3, FirstDomain: "a.example", LastDomain: "z.example", Domains: 10, IPs: 4}},
	},
}

func TestLineDecodeEdgeShapes(t *testing.T) {
	for _, e := range lineEdgeShapes {
		t.Run(e.name, func(t *testing.T) {
			if _, _, ok := decodeCanonical([]byte(e.line), nil, nil); ok != e.canonical {
				t.Errorf("decodeCanonical took the line: %v, want %v", ok, e.canonical)
			}
			d, info := usedRecords()
			got := jsonLine{Domain: d, IP: info}
			_, err := decodeLine([]byte(e.line), &got)
			if e.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), e.wantErr) {
					t.Fatalf("error %v, want one holding %q", err, e.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// A canonical line fills only the record of its kind.
			switch {
			case e.canonical && got.Kind == "domain":
				got.IP = nil
			case e.canonical:
				got.Domain = nil
			}
			if !reflect.DeepEqual(got, e.want) {
				t.Errorf("decoded\n got  %s\n want %s", dumpLine(got), dumpLine(e.want))
			}

			// The same through the two readers, behind a header.
			file := `{"kind":"snapshot","header":{"date":"d","corpus":"c"}}` + "\n" + e.line + "\n"
			if e.want.Kind != "domain" && e.want.Kind != "ip" {
				return
			}
			s, err := Read(strings.NewReader(file))
			if e.want.Domain == nil && e.want.IP == nil {
				if err == nil {
					t.Error("Read took a record line without a body")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case e.want.Domain != nil && (len(s.Domains) != 1 || !reflect.DeepEqual(&s.Domains[0], e.want.Domain)):
				t.Errorf("Read domains = %#v, want %#v", s.Domains, e.want.Domain)
			case e.want.IP != nil && (len(s.IPs) != 1 || !reflect.DeepEqual(s.IPs[e.want.IP.Addr.String()], *e.want.IP)):
				t.Errorf("Read ips = %#v, want %#v", s.IPs, e.want.IP)
			}
		})
	}
}

// dumpLine renders a decoded line with nil against empty slices visible.
func dumpLine(l jsonLine) string {
	out := fmt.Sprintf("kind %q header %+v footer %+v domain %#v ip %#v", l.Kind, l.Header, l.Footer, l.Domain, l.IP)
	if l.IP != nil && l.IP.Scan != nil {
		out += fmt.Sprintf(" scan %#v", *l.IP.Scan)
	}
	return out
}

// TestLineDecodeLongString decodes a record with a 20 MiB SPF string,
// far past any buffer the decoder could have assumed.
func TestLineDecodeLongString(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a ~20MiB record")
	}
	want := DomainRecord{Domain: "bigspf.example", MX: []MXObs{{Preference: 10, Exchange: "mx.example"}},
		SPF: "v=spf1 " + strings.Repeat("abcdefghijklmnopqrstuvwxyz", 20<<20/26)}
	line := bytes.TrimSuffix(appendDomainLine(nil, &want), []byte("\n"))
	var got DomainRecord
	if _, _, ok := decodeCanonical(line, &got, nil); !ok {
		t.Fatal("declined")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("long SPF record did not round-trip")
	}
}

// TestStreamRefillsInPlace pins what ForEach's "the record is reused"
// means since the line codec: MX and Addrs arrays are refilled, so a
// pass over many domains allocates their strings and nothing else, and
// a callback that keeps a slice sees it change.
func TestStreamRefillsInPlace(t *testing.T) {
	a := DomainRecord{Domain: "a.example", Rank: 1, MX: []MXObs{
		{Preference: 10, Exchange: "mx1.a.example", Addrs: []netip.Addr{addr("192.0.2.1"), addr("192.0.2.2")}},
		{Preference: 20, Exchange: "mx2.a.example", Addrs: []netip.Addr{addr("192.0.2.3")}, Dangling: true},
	}, SPF: "v=spf1 -all"}
	b := DomainRecord{Domain: "b.example", MX: []MXObs{{Preference: 5, Exchange: "mx.b.example", Addrs: []netip.Addr{addr("192.0.2.9")}}}, Delegation: DelegationLame}
	c := DomainRecord{Domain: "c.example"}
	var d DomainRecord
	var firstAddrs []netip.Addr
	for i, want := range []DomainRecord{a, b, a, c, a} {
		line := bytes.TrimSuffix(appendDomainLine(nil, &want), []byte("\n"))
		if _, _, ok := decodeCanonical(line, &d, nil); !ok {
			t.Fatalf("line %d declined", i)
		}
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("line %d decoded %#v, want %#v", i, d, want)
		}
		switch i {
		case 0:
			firstAddrs = d.MX[0].Addrs
		case 2:
			if &firstAddrs[0] != &d.MX[0].Addrs[0] {
				t.Error("the Addrs array of MX[0] was not reused two lines later")
			}
		}
	}
}
