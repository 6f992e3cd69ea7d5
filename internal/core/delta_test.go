package core

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"path/filepath"
	"reflect"
	"testing"

	"mxmap/internal/dataset"
)

// adversarialSnapshotNext is the adversarial world one snapshot later:
// the bulk operator lost half its look-alike registrations (dropping the
// cluster below the abuse threshold — an assignment flip whose affected
// domains' own records are byte-identical), lapsed.net recovered onto a
// real provider, a new Google customer appeared, and the hijack/dangling
// /control domains are untouched.
func adversarialSnapshotNext() *dataset.Snapshot {
	s := dataset.NewSnapshot("2021-07", "test")

	s.AddDomain(dataset.DomainRecord{Domain: "hijacked.com", Delegation: dataset.DelegationStaleGlue,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx1.hijack-relay.net", Dangling: true,
			Addrs: []netip.Addr{addr("9.9.1.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.1.1"), ASN: 64991, ASName: "RELAY", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP gsmtp", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})

	s.AddDomain(dataset.DomainRecord{Domain: "forgotten.org", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.gone-zone.net", Dangling: true}}})

	// Recovered: lapsed.net left the parking sinkhole for Google.
	s.AddDomain(dataset.DomainRecord{Domain: "lapsed.net", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "aspmx.l.google.com", Addrs: []netip.Addr{addr("172.217.1.1")}}}})

	// Only three of the six look-alikes remain, with identical records.
	for i := 0; i < 3; i++ {
		s.AddDomain(dataset.DomainRecord{Domain: fmt.Sprintf("cheap-pillz-dealz-%03d.xyz", i),
			MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.bulk-blast.xyz",
				Addrs: []netip.Addr{addr("9.9.3.1")}}}})
	}
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.3.1"), ASN: 64994, ASName: "BULK", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.bulk-blast.xyz ESMTP", BannerHost: "mx.bulk-blast.xyz", EHLOHost: "mx.bulk-blast.xyz",
		}})

	s.AddDomain(dataset.DomainRecord{Domain: "legit.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "aspmx.l.google.com", Addrs: []netip.Addr{addr("172.217.1.1")}}}})
	s.AddDomain(dataset.DomainRecord{Domain: "newcomer.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "aspmx.l.google.com", Addrs: []netip.Addr{addr("172.217.1.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("172.217.1.1"), ASN: 15169, ASName: "GOOGLE", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP gsmtp", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})
	return s
}

func deltaConfig() Config {
	return Config{Profiles: adversarialProfiles(), AbuseClusterMinDomains: 4}
}

// changedSet folds a diff into the delta-inference contract: every
// added or changed domain of the new snapshot, as dataset.DiffStream
// reports it over the two snapshots, sorted and written to files.
func changedSet(t *testing.T, old, new *dataset.Snapshot) map[string]bool {
	t.Helper()
	var streams []*dataset.Stream
	for _, s := range []*dataset.Snapshot{old, new} {
		s.SortDomains()
		path := filepath.Join(t.TempDir(), s.Date+".jsonl")
		if err := dataset.WriteFile(path, s); err != nil {
			t.Fatal(err)
		}
		st, err := dataset.OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	changed := make(map[string]bool)
	_, err := dataset.DiffStream(streams[0], streams[1], func(c dataset.Change) error {
		if c.Kind != dataset.DiffRemoved {
			changed[c.Domain] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

// inferDelta is InferStreamDelta over an in-memory snapshot with the
// prior's Domains in a map, collected the way Infer collects a run.
func inferDelta(t *testing.T, s *dataset.Snapshot, approach Approach, cfg Config, prior *Result, changed map[string]bool) (*Result, DeltaStats) {
	t.Helper()
	var priorAtt func(string) (DomainAttribution, bool)
	if prior != nil {
		atts := make(map[string]DomainAttribution, len(prior.Domains))
		for _, att := range prior.Domains {
			atts[att.Domain] = att
		}
		priorAtt = func(domain string) (DomainAttribution, bool) {
			att, ok := atts[domain]
			return att, ok
		}
	}
	domains := make([]DomainAttribution, 0, len(s.Domains))
	res, ds, err := InferStreamDelta(s, approach, cfg, prior, priorAtt, changed, func(att DomainAttribution) {
		domains = append(domains, att)
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Domains = domains
	return res, ds
}

// resultJSON is the byte-equivalence yardstick: two results marshaling
// identically are identical in every serialized field.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInferDeltaByteEquivalence proves the tentpole contract on the
// adversarial world: an incremental run over the churned snapshot is
// byte-identical to a full recompute, for every approach, while reusing
// exactly the domains whose inputs are provably unchanged.
func TestInferDeltaByteEquivalence(t *testing.T) {
	old, new := adversarialSnapshot(), adversarialSnapshotNext()
	cfg := deltaConfig()
	changed := changedSet(t, old, new)

	for _, approach := range Approaches() {
		prior := Infer(old, approach, cfg)
		full := Infer(new, approach, cfg)
		got, ds := inferDelta(t, new, approach, cfg, prior, changed)
		if want, have := resultJSON(t, full), resultJSON(t, got); want != have {
			t.Errorf("%s: delta result differs from full recompute:\nfull:  %s\ndelta: %s",
				approach, want, have)
		}
		if ds.Reused+ds.Reinferred != got.NumDomains {
			t.Errorf("%s: delta stats %+v don't cover %d domains", approach, ds, got.NumDomains)
		}
		if ds.Reused == 0 {
			t.Errorf("%s: delta reused nothing; the incremental path did not engage", approach)
		}
	}

	// Exact accounting under the priority approach: hijacked.com,
	// forgotten.org and legit.com are untouched with stable assignments;
	// lapsed.net changed, newcomer.com is new, and the three surviving
	// abuse-cluster domains have unchanged records but their exchange's
	// assignment flipped (the cluster fell below the threshold), which
	// the assignment cross-check must catch.
	prior := Infer(old, ApproachPriority, cfg)
	if a := prior.MX["mx.bulk-blast.xyz"]; a == nil || !a.Untrusted {
		t.Fatal("fixture broken: abuse cluster not flagged in the old snapshot")
	}
	full := Infer(new, ApproachPriority, cfg)
	if a := full.MX["mx.bulk-blast.xyz"]; a == nil || a.Untrusted {
		t.Fatal("fixture broken: shrunken cluster still flagged in the new snapshot")
	}
	_, ds := inferDelta(t, new, ApproachPriority, cfg, prior, changed)
	want := DeltaStats{Reused: 3, Reinferred: 5}
	if ds != want {
		t.Errorf("priority delta stats = %+v, want %+v", ds, want)
	}
}

// TestInferDeltaApproachMismatchRecomputes pins the degraded path: a
// prior from a different approach cannot seed reuse, and the run
// silently falls back to a full recompute.
func TestInferDeltaApproachMismatchRecomputes(t *testing.T) {
	old, new := adversarialSnapshot(), adversarialSnapshotNext()
	cfg := deltaConfig()
	changed := changedSet(t, old, new)
	prior := Infer(old, ApproachMXOnly, cfg)
	full := Infer(new, ApproachPriority, cfg)
	got, ds := inferDelta(t, new, ApproachPriority, cfg, prior, changed)
	if ds.Reused != 0 {
		t.Errorf("reused %d domains across an approach mismatch", ds.Reused)
	}
	if want, have := resultJSON(t, full), resultJSON(t, got); want != have {
		t.Error("mismatched-prior delta differs from full recompute")
	}
	// A nil prior degrades the same way.
	got2, ds2 := inferDelta(t, new, ApproachPriority, cfg, nil, changed)
	if ds2.Reused != 0 {
		t.Errorf("reused %d domains with a nil prior", ds2.Reused)
	}
	if want, have := resultJSON(t, full), resultJSON(t, got2); want != have {
		t.Error("nil-prior delta differs from full recompute")
	}
}

// TestInferStreamDeltaByteEquivalence proves the same contract on the
// streaming path, with the changed set produced by dataset.DiffStream
// over the snapshot files.
func TestInferStreamDeltaByteEquivalence(t *testing.T) {
	dir := t.TempDir()
	oldSnap, newSnap := adversarialSnapshot(), adversarialSnapshotNext()
	oldSnap.SortDomains()
	newSnap.SortDomains()
	oldPath := filepath.Join(dir, "old.jsonl")
	newPath := filepath.Join(dir, "new.jsonl")
	if err := dataset.WriteFile(oldPath, oldSnap); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteFile(newPath, newSnap); err != nil {
		t.Fatal(err)
	}
	oldSt, err := dataset.OpenStream(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newSt, err := dataset.OpenStream(newPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := deltaConfig()

	// Prior streaming run, retaining attributions the way a serving
	// store would.
	priorAtts := make(map[string]DomainAttribution)
	prior, err := InferStream(oldSt, ApproachPriority, cfg, func(att DomainAttribution) {
		priorAtts[att.Domain] = att
	})
	if err != nil {
		t.Fatal(err)
	}

	changed := make(map[string]bool)
	if _, err := dataset.DiffStream(oldSt, newSt, func(c dataset.Change) error {
		if c.Kind != dataset.DiffRemoved {
			changed[c.Domain] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var fullAtts []DomainAttribution
	full, err := InferStream(newSt, ApproachPriority, cfg, func(att DomainAttribution) {
		fullAtts = append(fullAtts, att)
	})
	if err != nil {
		t.Fatal(err)
	}

	var deltaAtts []DomainAttribution
	lookup := func(domain string) (DomainAttribution, bool) {
		att, ok := priorAtts[domain]
		return att, ok
	}
	got, ds, err := InferStreamDelta(newSt, ApproachPriority, cfg, prior, lookup, changed, func(att DomainAttribution) {
		deltaAtts = append(deltaAtts, att)
	})
	if err != nil {
		t.Fatal(err)
	}

	if want, have := resultJSON(t, full), resultJSON(t, got); want != have {
		t.Errorf("stream delta result differs from full recompute:\nfull:  %s\ndelta: %s", want, have)
	}
	if !reflect.DeepEqual(fullAtts, deltaAtts) {
		t.Errorf("emitted attributions differ:\nfull:  %+v\ndelta: %+v", fullAtts, deltaAtts)
	}
	want := DeltaStats{Reused: 3, Reinferred: 5}
	if ds != want {
		t.Errorf("stream delta stats = %+v, want %+v", ds, want)
	}
}
