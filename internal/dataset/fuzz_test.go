package dataset

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mxmap/internal/asn"
)

// FuzzJournalRead drives the journal frame decoder with arbitrary
// bytes. Recovery must never panic, never claim more valid bytes than
// the input holds, and — when it does recover entries — must be
// idempotent: recovering the valid prefix again yields the same result.
func FuzzJournalRead(f *testing.F) {
	// Seed: a healthy journal, its torn variants, and junk.
	path := filepath.Join(f.TempDir(), "seed.waj")
	j, err := CreateJournal(path, "2021-06", "alexa")
	if err != nil {
		f.Fatal(err)
	}
	s := sampleSnapshot()
	for i := range s.Domains {
		if err := j.AddDomain(&s.Domains[i]); err != nil {
			f.Fatal(err)
		}
	}
	info := s.IPs["172.217.0.26"]
	if err := j.AddIP(&info); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-4])
	f.Add(seed[:len(journalMagic)+3])
	f.Add([]byte(journalMagic))
	f.Add([]byte("not a journal at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := recoverJournal(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return // rejected (no magic); fine
		}
		if rec.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d > input %d", rec.ValidBytes, len(data))
		}
		if rec.Truncated != (rec.ValidBytes < int64(len(data))) {
			t.Fatalf("Truncated=%v but ValidBytes=%d of %d", rec.Truncated, rec.ValidBytes, len(data))
		}
		if rec.Entries > 0 && rec.Snapshot == nil {
			t.Fatal("entries recovered without a snapshot")
		}
		// Idempotence over the trusted prefix.
		if rec.ValidBytes > 0 {
			rec2, err := recoverJournal(bytes.NewReader(data[:rec.ValidBytes]), rec.ValidBytes)
			if err != nil {
				t.Fatalf("re-recovering the valid prefix failed: %v", err)
			}
			if rec2.ValidBytes != rec.ValidBytes || rec2.Entries != rec.Entries || rec2.Truncated {
				t.Fatalf("prefix re-recovery diverged: %d/%d entries, %d/%d bytes, truncated=%v",
					rec2.Entries, rec.Entries, rec2.ValidBytes, rec.ValidBytes, rec2.Truncated)
			}
		}
	})
}

// FuzzShardFooter drives the shard footer parser with arbitrary bytes:
// it must return a footer or an error, never panic, and any footer it
// accepts must satisfy the documented invariants.
func FuzzShardFooter(f *testing.F) {
	f.Add([]byte(`{"kind":"footer","footer":{"seq":3,"first_domain":"a.example","last_domain":"z.example","domains":10,"ips":4}}`))
	f.Add([]byte(`{"kind":"footer","footer":{"seq":0,"domains":0,"ips":0}}`))
	f.Add([]byte(`{"kind":"footer","footer":{"seq":-1,"domains":1,"ips":0}}`))
	f.Add([]byte(`{"kind":"domain","domain":{"domain":"x.example","mx":[]}}`))
	f.Add([]byte(`{"kind":"footer"}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		footer, err := ParseShardFooter(data)
		if err != nil {
			return
		}
		if footer == nil {
			t.Fatal("nil footer without error")
		}
		if footer.Domains < 0 || footer.IPs < 0 || footer.Seq < 0 {
			t.Fatalf("accepted negative counts: %+v", footer)
		}
		if (footer.Domains == 0) != (footer.FirstDomain == "" && footer.LastDomain == "") {
			t.Fatalf("accepted inconsistent domain range: %+v", footer)
		}
		if footer.FirstDomain > footer.LastDomain {
			t.Fatalf("accepted inverted range: %+v", footer)
		}
	})
}

// FuzzRead holds the two readers of the snapshot JSONL form to each
// other: for arbitrary bytes, Read and a Stream over the same bytes in a
// file (OpenStream, a ForEach pass, LoadIPs) both fail, or both yield the
// same header, domain records and IP table. Neither may panic.
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
		if wantErr != nil {
			return
		}
		if got.Date != want.Date || got.Corpus != want.Corpus {
			t.Fatalf("header: Read %s/%s, Stream %s/%s", want.Date, want.Corpus, got.Date, got.Corpus)
		}
		if !reflect.DeepEqual(got.Domains, want.Domains) {
			t.Fatalf("domains:\n Read   %#v\n Stream %#v", want.Domains, got.Domains)
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
		Domain: "previous.example", Rank: 7, SPF: "v=spf1 -all", Delegation: DelegationLame, Failure: FailDNSTimeout,
		MX: []MXObs{
			{Preference: 1, Exchange: "a.previous.example", Addrs: []netip.Addr{addr("192.0.2.1"), addr("192.0.2.2")}, Dangling: true, Failure: FailDNSTimeout},
			{Preference: 2, Exchange: "b.previous.example", Addrs: []netip.Addr{addr("192.0.2.3")}},
			{Preference: 3, Exchange: "c.previous.example"},
		},
	}
	info := &IPInfo{
		Addr: addr("192.0.2.9"), ASN: 64500, ASName: "PREVIOUS", HasCensys: true, Port25Open: true, Parked: true, Failure: FailDNSTimeout,
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
// for byte.
func FuzzLineDecode(f *testing.F) {
	for _, e := range lineEdgeShapes {
		f.Add([]byte(e.line))
	}
	for _, line := range bytes.Split(snapshotBytes(f, sampleSnapshot()), []byte("\n")) {
		f.Add(line)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var want jsonLine
		wantErr := json.Unmarshal(data, &want)

		d, info := usedRecords()
		kind, key, ok := decodeCanonical(data, d, info)
		if wkind, wkey, wok := decodeCanonical(data, nil, nil); wok != ok || (ok && (wkind != kind || !bytes.Equal(wkey, key))) {
			t.Fatalf("walk = (%q, %q, %v), decode = (%q, %q, %v)", wkind, wkey, wok, kind, key, ok)
		}
		if !ok {
			got := jsonLine{Domain: d, IP: info}
			_, err := decodeLine(data, &got)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("declined line: decodeLine error %v, json.Unmarshal error %v", err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("declined line: decodeLine = %+v, json.Unmarshal = %+v", got, want)
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
		if fkey, err := decodeLine(data, &fresh); err != nil || fresh.Kind != kind || !bytes.Equal(fkey, key) {
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
	})
}

// FuzzLineEncode holds the append encoders to encoding/json byte for
// byte, over records built from arbitrary field values: strings that
// need escaping, invalid UTF-8, IPv6 and zero addresses, nil against
// empty slices, a Scan that is present but empty.
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

		d := DomainRecord{Domain: domain, Rank: rank, SPF: spf, Delegation: delegation, Failure: FailDNSTimeout}
		switch {
		case bit(1):
			d.MX = []MXObs{}
		case bit(2):
			d.MX = []MXObs{
				{Preference: pref, Exchange: exchange, Addrs: addrs, Dangling: bit(3), Failure: FailDNSTimeout},
				{Preference: pref + 1, Exchange: spf, Addrs: []netip.Addr{}},
				{Exchange: banner, Addrs: addrs[:len(addrs)/2], Dangling: bit(4)},
			}
		}
		info := IPInfo{ASN: asn.ASN(origin), ASName: asName, HasCensys: bit(5), Port25Open: bit(6), Parked: bit(7), Failure: FailDNSTimeout}
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
		check("appendDomainLine", appendDomainLine(nil, &d), jsonLine{Kind: "domain", Domain: &d}, enc.Encode)
		check("appendIPLine", appendIPLine(nil, &info), jsonLine{Kind: "ip", IP: &info}, enc.Encode)
		check("appendDomainRecord", appendDomainRecord(nil, &d), &d, marshal)
		check("appendIPRecord", appendIPRecord(nil, &info), &info, marshal)
	})
}
