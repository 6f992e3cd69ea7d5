package main

import (
	"context"
	"crypto/tls"
	"math/rand/v2"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"mxmap/internal/certs"
	"mxmap/internal/dns"
	"mxmap/internal/smtp"
)

// TestProbeEndToEnd runs mxprobe's probe path against real loopback
// servers: a DNS server answering MX/A/TXT for the target domain and an
// SMTP server behind the advertised exchange.
func TestProbeEndToEnd(t *testing.T) {
	// SMTP server on an ephemeral loopback port.
	rng := rand.New(rand.NewPCG(1, 2))
	ca, err := certs.NewCA("Probe Test CA", rng)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafSpec{CommonName: "mx.provider.test"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	smtpSrv, err := smtp.NewServer(smtp.Config{
		Hostname: "mx.provider.test",
		TLS:      &tls.Config{Certificates: []tls.Certificate{leaf.TLSCertificate()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	smtpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go smtpSrv.Serve(smtpLn)
	defer smtpSrv.Close()
	smtpPort := uint16(smtpLn.Addr().(*net.TCPAddr).Port)

	// DNS server answering for probe-target.test.
	z := dns.NewZone("probe-target.test")
	z.MustAdd(dns.RR{Name: "probe-target.test.", Type: dns.TypeMX, TTL: 1,
		Data: dns.MXData{Preference: 10, Exchange: "mx.provider.test."}})
	z.MustAdd(dns.RR{Name: "probe-target.test.", Type: dns.TypeTXT, TTL: 1,
		Data: dns.TXTData{Strings: []string{"v=spf1 include:_spf.provider.test -all"}}})
	cat := dns.NewCatalog()
	cat.AddZone(z)
	pz := dns.NewZone("provider.test")
	pz.MustAdd(dns.RR{Name: "mx.provider.test.", Type: dns.TypeA, TTL: 1,
		Data: dns.AData{Addr: netip.MustParseAddr("127.0.0.1")}})
	cat.AddZone(pz)
	dnsSrv, err := dns.NewServer(dns.ServerConfig{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dnsSrv.ServeUDP(pc)
	defer dnsSrv.Close()

	client := dns.NewClient(pc.LocalAddr().String())
	client.Timeout = 2 * time.Second
	defer client.Close()
	var sb strings.Builder
	err = probe(context.Background(), &sb, dns.ClientResolver{Client: client},
		"probe-target.test", smtpPort, false, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"probe-target.test",
		"SPF: v=spf1 include:_spf.provider.test",
		"* MX 10 mx.provider.test",
		"MX-record signal: provider.test",
		"banner:  mx.provider.test",
		"banner signal: provider.test",
		"cert CN: mx.provider.test",
		"cert signal: provider.test",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("probe output missing %q:\n%s", want, out)
		}
	}
}

func TestProbeUnresolvableDomain(t *testing.T) {
	cat := dns.NewCatalog()
	cat.AddZone(dns.NewZone("empty.test"))
	dnsSrv, err := dns.NewServer(dns.ServerConfig{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dnsSrv.ServeUDP(pc)
	defer dnsSrv.Close()
	client := dns.NewClient(pc.LocalAddr().String())
	client.Timeout = time.Second
	defer client.Close()
	var sb strings.Builder
	err = probe(context.Background(), &sb, dns.ClientResolver{Client: client},
		"missing.empty.test", 25, true, time.Second)
	if err == nil {
		t.Error("probe of missing domain succeeded")
	}
}
