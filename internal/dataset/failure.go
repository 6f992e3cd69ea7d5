package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// FailureClass is the typed outcome of one collection step: a per-domain
// DNS lookup, a per-exchange address resolution, or a per-IP SMTP scan.
// The taxonomy mirrors how scanning studies partition unreachable vs.
// refusing vs. misbehaving hosts, so partial failure becomes data the
// methodology can reason about instead of silently biasing the snapshot.
//
// The zero value ("") means "not classified": snapshots loaded from disk
// predate classification or were stripped of it, and Health treats them
// as successful observations.
type FailureClass string

// The failure taxonomy. Classes marked transient are retryable under a
// scan.RetryPolicy; the rest are definitive for the snapshot.
const (
	// FailOK marks a fully successful observation.
	FailOK FailureClass = "ok"
	// FailNXDomain: the name does not exist (definitive).
	FailNXDomain FailureClass = "nxdomain"
	// FailDNSTimeout: the resolver timed out (transient).
	FailDNSTimeout FailureClass = "dns-timeout"
	// FailDNSServFail: the resolver answered SERVFAIL or another
	// non-success RCode (transient: often a momentary upstream problem).
	FailDNSServFail FailureClass = "dns-servfail"
	// FailConnRefused: the TCP dial was refused — port closed (definitive).
	FailConnRefused FailureClass = "conn-refused"
	// FailConnTimeout: the dial or a read timed out — unresponsive or
	// firewalled host (transient).
	FailConnTimeout FailureClass = "conn-timeout"
	// FailConnReset: the connection was reset mid-session (transient).
	FailConnReset FailureClass = "conn-reset"
	// FailProtoError: the host spoke, but not valid SMTP — garbage
	// greeting, bannerless connection, broken EHLO (definitive).
	FailProtoError FailureClass = "proto-error"
	// FailTLSError: STARTTLS was advertised but the upgrade failed
	// (definitive; the paper distinguishes this from "no STARTTLS").
	FailTLSError FailureClass = "tls-error"
	// FailNotCovered: the scanning service has no data for the address —
	// a Censys blind spot, not a property of the host (definitive).
	FailNotCovered FailureClass = "not-covered"
	// FailDanglingMX: the MX target's name no longer exists — the mail
	// zone was dropped while the MX record kept pointing at it
	// (definitive; the classic dangling-MX takeover precondition).
	FailDanglingMX FailureClass = "dangling-mx"
	// FailParkedIP: the exchange resolves, but to a known domain-parking
	// address where nothing listens on 25 — a dead mail setup, not a
	// transient connect failure (definitive).
	FailParkedIP FailureClass = "parked-ip"
	// FailLameDelegation: the domain is delegated, but its NS set never
	// answers authoritatively (definitive).
	FailLameDelegation FailureClass = "lame-delegation"
	// FailHijackSuspect: the parent-side delegation (registry NS + glue)
	// disagrees with the apex NS set the serving zone publishes — the
	// stale-glue hijack signature. The lookup "succeeds", so the record
	// still carries data, but its provenance is untrusted (definitive).
	FailHijackSuspect FailureClass = "hijack-suspect"
)

// Classes lists every failure class in presentation order.
func Classes() []FailureClass {
	return []FailureClass{
		FailOK, FailNXDomain, FailDNSTimeout, FailDNSServFail,
		FailConnRefused, FailConnTimeout, FailConnReset,
		FailProtoError, FailTLSError, FailNotCovered,
		FailDanglingMX, FailParkedIP, FailLameDelegation, FailHijackSuspect,
	}
}

// Transient reports whether the class is worth retrying: the condition
// may clear on a later attempt, unlike a definitive answer (NXDOMAIN,
// refused port, broken protocol).
func (f FailureClass) Transient() bool {
	switch f {
	case FailDNSTimeout, FailDNSServFail, FailConnTimeout, FailConnReset:
		return true
	}
	return false
}

// Failed reports whether the class records an unsuccessful observation.
func (f FailureClass) Failed() bool {
	return f != FailOK && f != ""
}

// CollectionStats aggregates the resilience machinery's counters for one
// collection run. It travels on the Snapshot in memory and inside the
// serialized Health report, never in the per-record JSONL lines.
type CollectionStats struct {
	// DNSRetries counts retried MX/A/AAAA lookups.
	DNSRetries int `json:"dns_retries"`
	// ScanRetries counts retried SMTP scans.
	ScanRetries int `json:"scan_retries"`
	// BudgetExhausted reports that the retry budget ran out before the
	// last transient failure: tail failures were not retried.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// BreakerOpens counts circuits opened by consecutive hard failures.
	BreakerOpens int `json:"breaker_opens"`
	// BreakerSkips counts scans short-circuited by an open breaker.
	BreakerSkips int `json:"breaker_skips"`
}

// Health is the per-snapshot failure summary: how much of the corpus was
// observed, and how the rest failed. It is the artifact serialized
// alongside collection results (mxscan -health, experiments -faults).
type Health struct {
	// Domains counts per-domain MX lookup outcomes by class.
	Domains map[FailureClass]int `json:"domains"`
	// Exchanges counts address-resolution outcomes by class, one entry
	// per distinct exchange host.
	Exchanges map[FailureClass]int `json:"exchanges"`
	// IPs counts per-IP scan outcomes by class.
	IPs map[FailureClass]int `json:"ips"`
	// Coverage is the fraction of scanned addresses the scanning service
	// had data for (the Censys-coverage rate).
	Coverage float64 `json:"coverage"`
	// Stats carries the retry/breaker counters of the collection run.
	Stats CollectionStats `json:"stats"`
}

// HealthOf computes the failure summary of a snapshot in one pass over
// its records. Records without a class (older snapshots, and anything
// read back from a file) are bucketed from what the serialized fields
// encode: HasCensys=false maps to not-covered, everything else to ok.
// Stats is left zero: the counters live with the collection run, not
// with the records.
func HealthOf(src Source) (*Health, error) {
	h := &Health{
		Domains:   make(map[FailureClass]int),
		Exchanges: make(map[FailureClass]int),
		IPs:       make(map[FailureClass]int),
	}
	// One vote per distinct exchange: popular exchanges appear in many
	// domains' MX sets but were resolved once.
	seen := make(map[string]bool)
	covered, total := 0, 0
	err := src.ForEach(
		func(d *DomainRecord) error {
			h.Domains[normalizeClass(d.Failure, domainFallback(d))]++
			for i := range d.MX {
				mx := &d.MX[i]
				if seen[mx.Exchange] {
					continue
				}
				seen[mx.Exchange] = true
				h.Exchanges[normalizeClass(mx.Failure, exchangeFallback(mx))]++
			}
			return nil
		},
		func(info *IPInfo) error {
			h.IPs[normalizeClass(info.Failure, ipFallback(info))]++
			total++
			if info.HasCensys {
				covered++
			}
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	if total > 0 {
		h.Coverage = float64(covered) / float64(total)
	}
	return h, nil
}

// Health is HealthOf the snapshot with the collection run's Stats folded
// in.
func (s *Snapshot) Health() *Health {
	h, _ := HealthOf(s) // no error: a Snapshot's ForEach only returns its callbacks', and these return none
	h.Stats = s.Stats
	return h
}

func normalizeClass(f, fallback FailureClass) FailureClass {
	if f == "" {
		return fallback
	}
	return f
}

// The fallback derivations below reconstruct classes for records loaded
// from disk, where the in-memory Failure fields are gone but the
// serialized adversarial evidence (Delegation, Dangling, Parked)
// survives. In-memory snapshots straight out of a collection run carry
// explicit classes and never reach the fallbacks.

func domainFallback(d *DomainRecord) FailureClass {
	switch d.Delegation {
	case DelegationStaleGlue:
		return FailHijackSuspect
	case DelegationLame:
		return FailLameDelegation
	}
	return FailOK
}

func exchangeFallback(mx *MXObs) FailureClass {
	if mx.Dangling && len(mx.Addrs) == 0 {
		return FailDanglingMX
	}
	return FailOK
}

func ipFallback(info *IPInfo) FailureClass {
	if info.Parked && !info.Port25Open {
		return FailParkedIP
	}
	if !info.HasCensys {
		return FailNotCovered
	}
	return FailOK
}

// OKRate returns the fraction of entries in the given class counts that
// succeeded.
func OKRate(counts map[FailureClass]int) float64 {
	total, ok := 0, 0
	for c, n := range counts {
		total += n
		if !c.Failed() {
			ok += n
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// WriteText renders the health report as an aligned table.
func (h *Health) WriteText(w io.Writer) error {
	writeSection := func(title string, counts map[FailureClass]int) error {
		total := 0
		for _, n := range counts {
			total += n
		}
		if _, err := fmt.Fprintf(w, "%s (%d total, %.1f%% ok)\n", title, total, 100*OKRate(counts)); err != nil {
			return err
		}
		// Known classes first, in taxonomy order, then any stragglers.
		emitted := make(map[FailureClass]bool)
		emit := func(c FailureClass) error {
			n := counts[c]
			if n == 0 {
				return nil
			}
			emitted[c] = true
			_, err := fmt.Fprintf(w, "  %-14s %d\n", c, n)
			return err
		}
		for _, c := range Classes() {
			if err := emit(c); err != nil {
				return err
			}
		}
		var rest []FailureClass
		for c := range counts {
			if !emitted[c] {
				rest = append(rest, c)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		for _, c := range rest {
			if err := emit(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeSection("domains", h.Domains); err != nil {
		return err
	}
	if err := writeSection("exchanges", h.Exchanges); err != nil {
		return err
	}
	if err := writeSection("ips", h.IPs); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "coverage %.1f%%  retries dns=%d scan=%d  breaker opens=%d skips=%d",
		100*h.Coverage, h.Stats.DNSRetries, h.Stats.ScanRetries, h.Stats.BreakerOpens, h.Stats.BreakerSkips)
	if err != nil {
		return err
	}
	if h.Stats.BudgetExhausted {
		if _, err := fmt.Fprintf(w, "  (retry budget exhausted)"); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintln(w)
	return err
}

// WriteJSON serializes the health report as indented JSON.
func (h *Health) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h)
}
