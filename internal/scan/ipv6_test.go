package scan

import (
	"context"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/world"
)

// TestDualStackMeasurement exercises the IPv6 extension end to end: a
// dual-stack world where large mail hosts publish AAAA records, the
// collector gathers and scans both families, and the inference
// methodology reaches the same conclusions it would over IPv4 alone.
func TestDualStackMeasurement(t *testing.T) {
	w, err := world.Generate(world.Config{
		Seed: 41, Scale: 0.002, TailProviders: 10, SelfISPs: 4, EnableIPv6: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	google := googleOf(t, w)
	if len(google.MailIPv6s) == 0 {
		t.Fatal("dual-stack world has no v6 mail servers")
	}

	sess, err := NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	snap, err := sess.Snapshot(context.Background(), world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}

	// v6 endpoints were resolved, scanned, routed, and certificate-
	// validated just like v4.
	v6Scanned := 0
	for _, info := range snap.IPs {
		if !info.Addr.Is4() {
			v6Scanned++
			if !info.Port25Open || info.Scan == nil || !info.Scan.CertValid {
				t.Errorf("v6 endpoint %s not fully observed: %+v", info.Addr, info)
			}
			if info.ASN == 0 {
				t.Errorf("v6 endpoint %s missing ASN", info.Addr)
			}
		}
	}
	if v6Scanned == 0 {
		t.Fatal("no IPv6 endpoints scanned")
	}

	// Domains on dual-stack providers carry both families in their MX
	// observations.
	sawDual := false
	for i := range snap.Domains {
		has4, has6 := false, false
		for _, mx := range snap.Domains[i].MX {
			for _, a := range mx.Addrs {
				if a.Is4() {
					has4 = true
				} else {
					has6 = true
				}
			}
		}
		if has4 && has6 {
			sawDual = true
			break
		}
	}
	if !sawDual {
		t.Error("no dual-stack MX observations")
	}

	// Inference still attributes correctly with mixed-family consensus.
	res := core.Infer(snap, core.ApproachPriority, core.Config{})
	corpus := w.Corpus(world.CorpusAlexa)
	dateIdx := corpus.DateIndex("2021-06")
	correct, total := 0, 0
	byName := map[string]core.DomainAttribution{}
	for _, a := range res.Domains {
		byName[a.Domain] = a
	}
	for _, d := range corpus.Domains {
		truth := w.TruthCompany(d, dateIdx)
		if truth == "" {
			continue
		}
		total++
		att := byName[d.Name]
		inferred := att.Primary()
		var company string
		if inferred == d.Name {
			company = d.Name
		} else {
			company = w.Directory.CompanyName(inferred)
		}
		if company == truth {
			correct++
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.9 {
		t.Errorf("dual-stack accuracy = %d/%d", correct, total)
	}
}
