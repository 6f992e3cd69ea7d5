package dataset

import "net/netip"

// Category classifies how much of a domain's signal chain was observable,
// reproducing the row structure of the paper's Table 4. Categories are
// mutually exclusive and assigned hierarchically: a domain lands in the
// first category whose condition holds anywhere short of full data.
type Category int

// Categories in Table 4 row order.
const (
	// CatNoMXIP: the domain has MX records but none of their exchanges
	// resolved to an IP address.
	CatNoMXIP Category = iota
	// CatNoCensys: at least one MX IP exists, but the scanning service
	// had no data for any of them.
	CatNoCensys
	// CatNoPort25: scan data exists for some MX IP, but port 25 was not
	// open on any of them.
	CatNoPort25
	// CatNoValidCert: an SMTP session was observed, but no MX IP
	// presented a browser-trusted certificate.
	CatNoValidCert
	// CatNoValidBanner: a valid certificate exists but no MX IP supplied
	// a usable FQDN in its Banner/EHLO messages.
	CatNoValidBanner
	// CatComplete: certificate and Banner/EHLO signals both available.
	CatComplete
	numCategories
)

var categoryNames = [...]string{
	"No MX IP",
	"No Censys",
	"No Port 25 Data",
	"No Valid SSL Cert.",
	"No Valid Banner/EHLO",
	"No Missing Data",
}

// String returns the Table 4 row label.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return "Unknown"
	}
	return categoryNames[c]
}

// Categories returns all categories in Table 4 row order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// ValidFQDN is the package's test for a usable host name in Banner/EHLO
// text: at least two dot-separated non-empty labels with host-legal
// characters. Strings like "IP-1-2-3-4" or "localhost" fail.
func ValidFQDN(s string) bool {
	if s == "" || len(s) > 253 {
		return false
	}
	labels := 0
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if i == start || i-start > 63 {
				return false
			}
			labels++
			start = i + 1
			continue
		}
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return labels >= 2
}

// Classify places one domain record into its Table 4 category using the
// snapshot's IP observations. Only the primary (most preferred) MX set is
// considered, consistent with the paper's focus on the primary provider.
func (s *Snapshot) Classify(d *DomainRecord) Category {
	return ClassifyWith(d, s.IP)
}

// ClassifyWith is Classify against any IP-observation source, so
// streaming passes can categorize domains without a materialized
// Snapshot.
func ClassifyWith(d *DomainRecord, lookup func(netip.Addr) (IPInfo, bool)) Category {
	var (
		anyIP, anyCensys, anyPort25 bool
		anyValidCert, anyBanner     bool
	)
	for _, mx := range d.PrimaryMX() {
		for _, addr := range mx.Addrs {
			anyIP = true
			info, ok := lookup(addr)
			if !ok || !info.HasCensys {
				continue
			}
			anyCensys = true
			if !info.Port25Open || info.Scan == nil {
				continue
			}
			anyPort25 = true
			if info.Scan.CertPresent && info.Scan.CertValid {
				anyValidCert = true
			}
			if ValidFQDN(info.Scan.BannerHost) || ValidFQDN(info.Scan.EHLOHost) {
				anyBanner = true
			}
		}
	}
	switch {
	case !anyIP:
		return CatNoMXIP
	case !anyCensys:
		return CatNoCensys
	case !anyPort25:
		return CatNoPort25
	case !anyValidCert:
		return CatNoValidCert
	case !anyBanner:
		return CatNoValidBanner
	default:
		return CatComplete
	}
}

// Breakdown counts domains per category — one column of Table 4.
type Breakdown struct {
	Counts [numCategories]int
	Total  int
}

// BreakdownOf classifies every domain of a snapshot into its Table 4
// category: the bounded IP section is loaded first, then the domains
// pass through the classifier.
func BreakdownOf(src Source) (Breakdown, error) {
	ips, err := src.LoadIPs()
	if err != nil {
		return Breakdown{}, err
	}
	lookup := func(addr netip.Addr) (IPInfo, bool) {
		info, ok := ips[addr.String()]
		return info, ok
	}
	var b Breakdown
	err = src.ForEach(func(d *DomainRecord) error {
		b.Counts[ClassifyWith(d, lookup)]++
		b.Total++
		return nil
	}, nil)
	if err != nil {
		return Breakdown{}, err
	}
	return b, nil
}

// Count returns the number of domains in the category.
func (b Breakdown) Count(c Category) int {
	if c < 0 || int(c) >= len(b.Counts) {
		return 0
	}
	return b.Counts[c]
}
