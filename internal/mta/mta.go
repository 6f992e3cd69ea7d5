// Package mta implements an outbound mail transfer agent: the component
// of the paper's Figure 1 that resolves each recipient domain's MX
// records and relays the message to the most preferred reachable
// exchange. It drives the same DNS and SMTP substrates the measurement
// pipeline observes, closing the loop between provisioning (MX records)
// and behaviour (where mail actually lands).
package mta

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"mxmap/internal/dns"
	"mxmap/internal/smtp"
)

// Agent is an outbound MTA.
type Agent struct {
	// Resolver locates recipient MX hosts. Required.
	Resolver dns.Resolver
	// Dialer reaches them. Required.
	Dialer smtp.Dialer
	// HELOName is the identity presented to receiving MTAs (default
	// "mta.invalid").
	HELOName string
}

// Delivery describes the outcome for one recipient domain.
type Delivery struct {
	// Domain is the recipient domain.
	Domain string
	// Recipients are the addresses delivered in this transaction.
	Recipients []string
	// Exchange is the MX host that accepted the message.
	Exchange string
	// Addr is the server address used.
	Addr netip.Addr
	// Err is non-nil when every exchange failed.
	Err error
}

// Errors.
var (
	// ErrNoRecipients reports an empty recipient list.
	ErrNoRecipients = errors.New("mta: no recipients")
	// ErrNoRoute reports a domain with neither MX records nor an
	// implicit-MX address.
	ErrNoRoute = errors.New("mta: no mail exchanger")
	// ErrAllExchangesFailed reports that every candidate server refused
	// or failed the transaction.
	ErrAllExchangesFailed = errors.New("mta: all exchanges failed")
)

// Deliver relays one message to every recipient, grouping recipients by
// domain as RFC 5321 §5 prescribes and trying each domain's exchanges in
// preference order. It returns one Delivery per recipient domain; the
// error aggregates any per-domain failures.
func (a *Agent) Deliver(ctx context.Context, from string, to []string, msg []byte) ([]Delivery, error) {
	if len(to) == 0 {
		return nil, ErrNoRecipients
	}
	if a.Resolver == nil || a.Dialer == nil {
		return nil, errors.New("mta: agent requires a resolver and a dialer")
	}
	byDomain := make(map[string][]string)
	var order []string
	for _, rcpt := range to {
		_, domain, ok := strings.Cut(rcpt, "@")
		if !ok || domain == "" {
			return nil, fmt.Errorf("mta: malformed recipient %q", rcpt)
		}
		domain = strings.ToLower(domain)
		if _, seen := byDomain[domain]; !seen {
			order = append(order, domain)
		}
		byDomain[domain] = append(byDomain[domain], rcpt)
	}
	var (
		out  []Delivery
		errs []error
	)
	for _, domain := range order {
		d := a.deliverDomain(ctx, from, domain, byDomain[domain], msg)
		if d.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", domain, d.Err))
		}
		out = append(out, d)
	}
	return out, errors.Join(errs...)
}

// route is one candidate (exchange, address) pair in preference order.
type route struct {
	exchange string
	addr     netip.Addr
}

// deliverDomain relays to one recipient domain.
func (a *Agent) deliverDomain(ctx context.Context, from, domain string, rcpts []string, msg []byte) Delivery {
	d := Delivery{Domain: domain, Recipients: rcpts}
	routes, err := a.routes(ctx, domain)
	if err != nil {
		d.Err = err
		return d
	}
	helo := a.HELOName
	if helo == "" {
		helo = "mta.invalid"
	}
	var lastErr error
	for _, r := range routes {
		addr := netip.AddrPortFrom(r.addr, 25).String()
		// Opportunistic (unverified) TLS, matching common MTA practice
		// noted in the paper's §2.3.
		if err := smtp.SendMail(ctx, a.Dialer, addr, helo, from, rcpts, msg, nil); err != nil {
			lastErr = err
			continue
		}
		d.Exchange = r.exchange
		d.Addr = r.addr
		return d
	}
	if lastErr == nil {
		lastErr = ErrNoRoute
	}
	d.Err = fmt.Errorf("%w: %w", ErrAllExchangesFailed, lastErr)
	return d
}

// routes resolves the delivery candidates for a domain: its MX records
// in preference order, or — per RFC 5321 §5.1's implicit MX rule — the
// domain's own address when no MX exists.
func (a *Agent) routes(ctx context.Context, domain string) ([]route, error) {
	mxs, err := a.Resolver.LookupMX(ctx, domain)
	switch {
	case err == nil:
		sort.SliceStable(mxs, func(i, j int) bool { return mxs[i].Preference < mxs[j].Preference })
		var out []route
		for _, mx := range mxs {
			addrs, err := a.Resolver.LookupA(ctx, mx.Exchange)
			if err != nil {
				continue
			}
			for _, addr := range addrs {
				out = append(out, route{exchange: mx.Exchange, addr: addr})
			}
		}
		if len(out) == 0 {
			return nil, ErrNoRoute
		}
		return out, nil
	case errors.Is(err, dns.ErrNoData):
		// Implicit MX: fall back to the domain's own A record.
		addrs, aerr := a.Resolver.LookupA(ctx, domain)
		if aerr != nil || len(addrs) == 0 {
			return nil, ErrNoRoute
		}
		out := make([]route, len(addrs))
		for i, addr := range addrs {
			out[i] = route{exchange: domain, addr: addr}
		}
		return out, nil
	default:
		return nil, err
	}
}
