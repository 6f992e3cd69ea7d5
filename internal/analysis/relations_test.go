package analysis

import (
	"hash/fnv"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

// Metamorphic relations of the folds (ROADMAP item 21): the method
// derives every attribution from the records alone, so the order of a
// snapshot's lines is no input, and split credit conserves domains.

// folded is everything the folds make of one corpus's first and last
// snapshots, attribution set included.
type folded struct {
	Atts     map[string]core.DomainAttribution // last snapshot
	Top      []Share
	SelfN    float64
	SelfPct  float64
	Conc     Concentration
	Segments map[string][]Share
	CCTLD    map[string]float64 // "tld company" → percent
	SPF      SPFStats
	Misid    *MisidReport
	Accuracy []AccuracyResult
	Churn    *Churn
}

// foldFiles runs every fold over the snapshot files first and last of
// the Alexa corpus, each read as a Stream: analysis.Fold hands the folds
// each record beside its emit, in the file's line order.
func foldFiles(t *testing.T, w *world.World, first, last string) folded {
	t.Helper()
	cfg := core.Config{Profiles: testProfiles(w)}
	stream := func(path string, fold func(*dataset.DomainRecord, core.DomainAttribution)) *dataset.Stream {
		t.Helper()
		st, err := dataset.OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Fold(st, core.ApproachPriority, cfg, fold); err != nil {
			t.Fatal(err)
		}
		return st
	}

	join := NewChurnJoin(w.Directory, []string{"Google", "Microsoft", "Yandex"})
	stream(first, func(_ *dataset.DomainRecord, att core.DomainAttribution) { join.AddFirst(att) })

	out := folded{Atts: make(map[string]core.DomainAttribution), Segments: make(map[string][]Share)}
	acc := NewShareAccumulator(w.Directory)
	segs := []*Segment{NewSegment("top 50", RankAtMost(50), w.Directory), NewSegment("top 5", RankAtMost(5), w.Directory)}
	prefs := NewCCTLDPreferences(w.Directory)
	spf := NewSPFStats(w.Directory)
	var oracle []MisidOracle
	for _, e := range w.Oracle(world.CorpusAlexa) {
		oracle = append(oracle, MisidOracle{Domain: e.Domain, Family: string(e.Family), Truth: e.Truth,
			Forged: e.Forged, ExpectFlagged: e.ExpectFlagged, Detail: e.Detail})
	}
	misid := NewMisidScorer(oracle, w.Directory)
	st := stream(last, func(rec *dataset.DomainRecord, att core.DomainAttribution) {
		out.Atts[att.Domain] = att
		acc.Add(att)
		for _, seg := range segs {
			seg.Add(att)
		}
		prefs.Add(att)
		spf.Add(rec, att)
		misid.Add(rec, att)
		join.AddLast(att)
	})

	out.Top = acc.TopShares(0)
	out.SelfN, out.SelfPct = SelfHostedCount(acc)
	out.Conc = acc.Concentration()
	for _, seg := range segs {
		out.Segments[seg.Name] = seg.TopShares(0)
	}
	out.CCTLD = make(map[string]float64)
	for _, tld := range prefs.TLDs() {
		for _, company := range []string{"Google", "Microsoft", "Tencent", "Yandex"} {
			out.CCTLD[tld+" "+company] = prefs.Percent(tld, company)
		}
	}
	out.SPF = *spf
	out.Misid = misid.Report()
	var err error
	if out.Churn, err = join.Churn(); err != nil {
		t.Fatal(err)
	}
	dateIdx := w.Corpus(world.CorpusAlexa).DateIndex(st.Date)
	truth := make(map[string]string)
	for _, d := range w.Corpus(world.CorpusAlexa).Domains {
		truth[d.Name] = w.TruthCompany(d, dateIdx)
		if truth[d.Name] == d.Name {
			truth[d.Name] = SelfHostedLabel
		}
	}
	if out.Accuracy, err = EvaluateAccuracy(st, AccuracyConfig{
		SampleSize: 100, UniqueMX: true, Seed: 3,
		Truth:       func(domain string) string { return truth[domain] },
		Company:     func(domain, id string) string { return CompanyOf(domain, id, w.Directory) },
		InferConfig: cfg,
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// permuteFile writes src's lines to dst with the lines of one kind
// ("domain" or "ip") reordered by a keyed hash of key(line), every
// other line in place.
func permuteFile(t *testing.T, src, dst, kind string, key func(line string) string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	prefix := `{"kind":"` + kind + `"`
	var slots []int
	var picked []string
	for i, line := range lines {
		if strings.HasPrefix(line, prefix) {
			slots = append(slots, i)
			picked = append(picked, line)
		}
	}
	if len(picked) < 2 {
		t.Fatalf("%s holds %d %s lines, too few to permute", src, len(picked), kind)
	}
	hash := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte("permute:" + s))
		return h.Sum64()
	}
	sort.SliceStable(picked, func(i, j int) bool { return hash(key(picked[i])) < hash(key(picked[j])) })
	moved := 0
	for n, i := range slots {
		if lines[i] != picked[n] {
			moved++
		}
		lines[i] = picked[n]
	}
	if moved == 0 {
		t.Fatalf("%s: the permutation leaves every %s line in place", src, kind)
	}
	if err := os.WriteFile(dst, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// domainOf is a domain line's domain name: one name keys the same
// position in the first and the last snapshot, so the churn join's two
// streams stay in one order.
func domainOf(line string) string {
	const field = `"domain":{"domain":"`
	i := strings.Index(line, field)
	rest := line[i+len(field):]
	return rest[:strings.IndexByte(rest, '"')]
}

// TestFoldsIgnoreLineOrder: permuting a snapshot's domain lines, and
// separately its IP lines, leaves the attribution set and the output
// of every fold identical.
func TestFoldsIgnoreLineOrder(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	dir := t.TempDir()
	paths := make(map[string]string)
	for _, date := range []string{dates[0], dates[len(dates)-1]} {
		paths[date] = filepath.Join(dir, date+".jsonl")
		if err := dataset.WriteFile(paths[date], snaps[world.CorpusAlexa][date]); err != nil {
			t.Fatal(err)
		}
	}
	first, last := paths[dates[0]], paths[dates[len(dates)-1]]
	want := foldFiles(t, w, first, last)
	if len(want.Atts) == 0 || len(want.Top) == 0 || len(want.CCTLD) == 0 || want.SPF.WithSPF == 0 || len(want.Churn.Flows) == 0 {
		t.Fatalf("the reference folds are empty: %d attributions, %d shares, %d ccTLD cells, %d SPF policies, %d flows",
			len(want.Atts), len(want.Top), len(want.CCTLD), want.SPF.WithSPF, len(want.Churn.Flows))
	}

	for _, tc := range []struct {
		kind string
		key  func(string) string
	}{
		{"domain", domainOf},
		{"ip", func(line string) string { return line }},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			pfirst, plast := filepath.Join(dir, tc.kind+"-first.jsonl"), filepath.Join(dir, tc.kind+"-last.jsonl")
			permuteFile(t, first, pfirst, tc.kind, tc.key)
			permuteFile(t, last, plast, tc.kind, tc.key)
			sameFolds(t, "permuted "+tc.kind+" lines", want, foldFiles(t, w, pfirst, plast))
		})
	}
}

// sameFolds fails t for each output of the folds that a relation's
// rewrite (named by what) changed.
func sameFolds(t *testing.T, what string, want, got folded) {
	t.Helper()
	v, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < v.NumField(); i++ {
		if !reflect.DeepEqual(v.Field(i).Interface(), g.Field(i).Interface()) {
			t.Errorf("%s change %s:\nbefore %+v\nafter  %+v",
				what, v.Type().Field(i).Name, v.Field(i).Interface(), g.Field(i).Interface())
		}
	}
}

// relabel is the relabelling relation's bijection: it complements an
// IPv4 address's last octet and an IPv6 address's low 64 bits, so every
// address keeps its /24 or /64, and with it its routing.
func relabel(a netip.Addr) netip.Addr {
	if a.Is4() {
		b := a.As4()
		b[3] ^= 0xff
		return netip.AddrFrom4(b)
	}
	b := a.As16()
	for i := 8; i < 16; i++ {
		b[i] ^= 0xff
	}
	return netip.AddrFrom16(b)
}

// relabelFile writes src to dst with every address, in the domain lines'
// MX records and in the IP lines, rewritten by relabel. Every other
// field of a line, the IP lines' ASN fields included, is kept. The IP
// section is written sorted by its new text, which must put some lines
// in another order than their sources had.
func relabelFile(t *testing.T, src, dst string) {
	t.Helper()
	snap, err := dataset.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	out := dataset.NewSnapshot(snap.Date, snap.Corpus)
	for _, d := range snap.Domains {
		mx := make([]dataset.MXObs, len(d.MX))
		for i, m := range d.MX {
			mx[i] = m
			mx[i].Addrs = nil
			for _, a := range m.Addrs {
				mx[i].Addrs = append(mx[i].Addrs, relabel(a))
			}
		}
		d.MX = mx
		out.AddDomain(d)
	}
	oldOrder := make([]string, 0, len(snap.IPs))
	for key, info := range snap.IPs {
		oldOrder = append(oldOrder, key)
		info.Addr = relabel(info.Addr)
		out.AddIP(info)
	}
	newOrder := make([]string, 0, len(out.IPs))
	for key := range out.IPs {
		newOrder = append(newOrder, key)
	}
	sort.Strings(oldOrder)
	sort.Strings(newOrder)
	moved := 0
	for i, key := range oldOrder {
		if relabel(netip.MustParseAddr(key)).String() != newOrder[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("%s: relabelling keeps the IP section's order", src)
	}
	if err := dataset.WriteFile(dst, out); err != nil {
		t.Fatal(err)
	}
}

// TestFoldsIgnoreAddressRelabelling (ROADMAP item 21): renumbering the
// hosts inside each /24 and /64, routing kept, leaves the attribution
// set and the output of every fold identical, on the tests' world and
// on a hostile one (a quarter of the corpus in the adversary families,
// scored by the misid fold). The method reads an address only as an
// identity and through its routing (PAPER.md §1: identities come from
// certificates, banners and MX names, and the misidentification pass
// from per-IP popularity counters and AS membership), never by its
// number.
func TestFoldsIgnoreAddressRelabelling(t *testing.T) {
	w, snaps := setup(t)
	hostile, err := world.Generate(world.Config{Seed: 7, Scale: 0.003, Adversarial: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := scan.NewWorldSession(hostile)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, tc := range []struct {
		name  string
		w     *world.World
		alexa func(date string) *dataset.Snapshot
	}{
		{"tests", w, func(date string) *dataset.Snapshot { return snaps[world.CorpusAlexa][date] }},
		{"hostile", hostile, func(date string) *dataset.Snapshot { return collect(t, sess, world.CorpusAlexa, date) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dates := tc.w.Corpus(world.CorpusAlexa).Dates
			dir := t.TempDir()
			var paths, relabelled []string
			for _, date := range []string{dates[0], dates[len(dates)-1]} {
				path := filepath.Join(dir, date+".jsonl")
				if err := dataset.WriteFile(path, tc.alexa(date)); err != nil {
					t.Fatal(err)
				}
				rpath := filepath.Join(dir, date+"-relabelled.jsonl")
				relabelFile(t, path, rpath)
				paths, relabelled = append(paths, path), append(relabelled, rpath)
			}
			sameFolds(t, "relabelled addresses", foldFiles(t, tc.w, paths[0], paths[1]), foldFiles(t, tc.w, relabelled[0], relabelled[1]))
		})
	}
}

// TestCreditConservation: each attribution's credits sum to 1 or to 0,
// and a ShareAccumulator's totals sum to the number of domains holding
// credit.
func TestCreditConservation(t *testing.T) {
	w, snaps := setup(t)
	for corpus, byDate := range snaps {
		for date, snap := range byDate {
			acc := NewShareAccumulator(w.Directory)
			credited := 0
			pass(t, w, snap, acc.Add, func(att core.DomainAttribution) {
				sum := 0.0
				for _, c := range att.Credits {
					sum += c
				}
				if sum != 0 && math.Abs(sum-1) > 1e-12 {
					t.Errorf("%s %s: %s's credits sum to %v: %v", corpus, date, att.Domain, sum, att.Credits)
				}
				if sum != 0 {
					credited++
				}
			})
			total := 0.0
			for _, c := range acc.Credits() {
				total += c
			}
			if math.Abs(total-float64(credited)) > 1e-9 {
				t.Errorf("%s %s: company totals sum to %v, %d domains hold credit", corpus, date, total, credited)
			}
			if credited == 0 || acc.Domains() != len(snap.Domains) {
				t.Errorf("%s %s: %d of %d domains folded, %d credited", corpus, date, acc.Domains(), len(snap.Domains), credited)
			}
		}
	}
}
