// Command mxprobe runs the paper's measurement chain against one domain:
// resolve its MX records through a DNS server, resolve each exchange's
// addresses, scan each address's SMTP service (banner, EHLO, STARTTLS
// certificate), and print what each inference signal says about the mail
// provider.
//
// It speaks to real servers over real sockets; point -dns at any
// standard DNS resolver or authoritative server.
//
// Usage:
//
//	mxprobe -dns 127.0.0.1:5353 example.com
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"os"
	"time"

	"mxmap/internal/dns"
	"mxmap/internal/psl"
	"mxmap/internal/sigctx"
	"mxmap/internal/smtp"
)

func main() {
	var (
		dnsServer = flag.String("dns", "127.0.0.1:53", "DNS server to query (host:port)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-step timeout")
		skipTLS   = flag.Bool("no-starttls", false, "skip the STARTTLS certificate probe")
		port      = flag.Int("port", 25, "SMTP port to probe (25 for MTA relay)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mxprobe [flags] <domain>")
		os.Exit(2)
	}
	domain := flag.Arg(0)

	client := dns.NewClient(*dnsServer)
	client.Timeout = *timeout
	defer client.Close()
	resolver := dns.ClientResolver{Client: client}
	// Ctrl-C cancels the probe mid-chain (a second one force-exits);
	// in-flight DNS queries and SMTP scans unwind promptly.
	ctx, stop := sigctx.WithInterrupt(context.Background())
	defer stop()

	if err := probe(ctx, os.Stdout, resolver, domain, uint16(*port), *skipTLS, *timeout); err != nil {
		log.Fatal(err)
	}
}

func probe(ctx context.Context, w io.Writer, resolver dns.ClientResolver, domain string, port uint16, skipTLS bool, timeout time.Duration) error {
	mxs, err := resolver.LookupMX(ctx, domain)
	if err != nil {
		return fmt.Errorf("MX lookup: %w", err)
	}
	fmt.Fprintf(w, "%s\n", domain)
	if reg, ok := psl.RegisteredDomain(domain); ok && reg != domain {
		fmt.Fprintf(w, "  registered domain: %s\n", reg)
	}
	if spfTxt, err := resolver.LookupTXT(ctx, domain); err == nil {
		for _, txt := range spfTxt {
			if len(txt) >= 6 && txt[:6] == "v=spf1" {
				fmt.Fprintf(w, "  SPF: %s\n", txt)
			}
		}
	}

	primaryPref := mxs[0].Preference
	for _, mx := range mxs {
		marker := " "
		if mx.Preference == primaryPref {
			marker = "*" // primary MX: the record the methodology attributes
		}
		fmt.Fprintf(w, "%s MX %d %s\n", marker, mx.Preference, mx.Exchange)
		mxID := "-"
		if reg, ok := psl.RegisteredDomain(mx.Exchange); ok {
			mxID = reg
		}
		fmt.Fprintf(w, "    MX-record signal: %s\n", mxID)

		var addrs []netip.Addr
		if v4, err := resolver.LookupA(ctx, mx.Exchange); err == nil {
			addrs = append(addrs, v4...)
		}
		if v6, err := resolver.LookupAAAA(ctx, mx.Exchange); err == nil {
			addrs = append(addrs, v6...)
		}
		if len(addrs) == 0 {
			fmt.Fprintf(w, "    (exchange does not resolve)\n")
			continue
		}
		for _, addr := range addrs {
			probeAddr(ctx, w, addr, port, skipTLS, timeout)
		}
	}
	return nil
}

func probeAddr(ctx context.Context, w io.Writer, addr netip.Addr, port uint16, skipTLS bool, timeout time.Duration) {
	fmt.Fprintf(w, "    %s\n", addr)
	res := smtp.Scan(ctx, netip.AddrPortFrom(addr, port).String(), smtp.ScanConfig{
		Dialer:       &net.Dialer{},
		Timeout:      timeout,
		SkipSTARTTLS: skipTLS,
	})
	if !res.Connected {
		fmt.Fprintf(w, "      port %d: closed/unreachable (%v)\n", port, res.Err)
		return
	}
	fmt.Fprintf(w, "      banner:  %s\n", res.Banner)
	fmt.Fprintf(w, "      EHLO:    %s\n", res.EHLOHost)
	if bannerID, ok := psl.RegisteredDomain(res.BannerHost); ok {
		fmt.Fprintf(w, "      banner signal: %s\n", bannerID)
	}
	if res.TLSHandshakeOK && len(res.PeerCertificates) > 0 {
		leaf := res.PeerCertificates[0]
		fmt.Fprintf(w, "      cert CN: %s\n", leaf.Subject.CommonName)
		if len(leaf.DNSNames) > 0 {
			fmt.Fprintf(w, "      cert SANs: %v\n", leaf.DNSNames)
		}
		if certID, ok := psl.RegisteredDomain(leaf.Subject.CommonName); ok {
			fmt.Fprintf(w, "      cert signal: %s\n", certID)
		}
	} else if res.SupportsSTARTTLS && !skipTLS {
		fmt.Fprintf(w, "      STARTTLS advertised but handshake failed: %v\n", res.Err)
	}
}
