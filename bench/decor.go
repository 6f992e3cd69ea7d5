package main

import (
	"context"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"mxmap/internal/dns"
	"mxmap/internal/smtp"
)

// callMeter counts calls through a decorator and sums the time spent
// inside them. Calls overlap across workers, so busy is time summed
// over calls, not wall time.
type callMeter struct {
	name  string
	tr    *tracer
	calls atomic.Int64
	busy  atomic.Int64 // ns
}

func (m *callMeter) observe(start time.Time) {
	end := time.Now()
	m.calls.Add(1)
	m.busy.Add(end.Sub(start).Nanoseconds())
	m.tr.leaf(m.name, start, end)
}

func (m *callMeter) busySeconds() float64 { return float64(m.busy.Load()) / 1e9 }

// The collector discovers optional resolver abilities by type
// assertion (dns.ProvenanceChecker on the flat world's resolver,
// dns.TXTResolver and Close on the iterative one). A decorator that hid
// them would change what is collected, so there is one decorator per
// ability set, and meterResolver picks the one that matches.

type meteredResolver struct {
	inner dns.Resolver
	m     *callMeter
}

func (r meteredResolver) LookupMX(ctx context.Context, domain string) ([]dns.MXData, error) {
	defer r.m.observe(time.Now())
	return r.inner.LookupMX(ctx, domain)
}

func (r meteredResolver) LookupA(ctx context.Context, host string) ([]netip.Addr, error) {
	defer r.m.observe(time.Now())
	return r.inner.LookupA(ctx, host)
}

func (r meteredResolver) LookupAAAA(ctx context.Context, host string) ([]netip.Addr, error) {
	defer r.m.observe(time.Now())
	return r.inner.LookupAAAA(ctx, host)
}

type meteredProvResolver struct {
	meteredResolver
	prov dns.ProvenanceChecker
}

func (r meteredProvResolver) DelegationStale(ctx context.Context, domain string) bool {
	defer r.m.observe(time.Now())
	return r.prov.DelegationStale(ctx, domain)
}

func (r meteredProvResolver) ZoneGone(ctx context.Context, host string) bool {
	defer r.m.observe(time.Now())
	return r.prov.ZoneGone(ctx, host)
}

type meteredTXTResolver struct {
	meteredResolver
	txt dns.TXTResolver
}

func (r meteredTXTResolver) LookupTXT(ctx context.Context, domain string) ([]string, error) {
	defer r.m.observe(time.Now())
	return r.txt.LookupTXT(ctx, domain)
}

func (r meteredTXTResolver) Close() error {
	if c, ok := r.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// meterResolver wraps inner so that every lookup is counted, timed and
// (when tracing) recorded as a leaf span. Only the two ability sets the
// workloads use are supported.
func meterResolver(inner dns.Resolver, m *callMeter) dns.Resolver {
	base := meteredResolver{inner: inner, m: m}
	prov, hasProv := inner.(dns.ProvenanceChecker)
	txt, hasTXT := inner.(dns.TXTResolver)
	switch {
	case hasProv && !hasTXT:
		return meteredProvResolver{base, prov}
	case hasTXT && !hasProv:
		return meteredTXTResolver{base, txt}
	case !hasTXT && !hasProv:
		return base
	}
	panic("bench: resolver with both TXT and provenance abilities has no decorator")
}

// meteredDialer times SMTP sessions: one session is the life of the
// connection the scanner opened, dial to Close.
type meteredDialer struct {
	inner smtp.Dialer
	dials *callMeter // time inside DialContext
	conns *callMeter // connection lifetime
}

func (d meteredDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	start := time.Now()
	c, err := d.inner.DialContext(ctx, network, address)
	d.dials.observe(start)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, opened: start, m: d.conns}, nil
}

type meteredConn struct {
	net.Conn
	opened time.Time
	m      *callMeter
	closed atomic.Bool
}

func (c *meteredConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.m.observe(c.opened)
	}
	return c.Conn.Close()
}

// meterDialFunc wraps the dial hooks that are plain functions: the
// iterative resolver's DialContext.
func meterDialFunc(inner func(ctx context.Context, network, address string) (net.Conn, error), m *callMeter) func(ctx context.Context, network, address string) (net.Conn, error) {
	return func(ctx context.Context, network, address string) (net.Conn, error) {
		defer m.observe(time.Now())
		return inner(ctx, network, address)
	}
}
