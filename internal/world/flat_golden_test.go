package world

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// flatGolden holds, per (seed, adversarial share), the SHA-256 of every
// per-domain draw and every resolver answer of domains 0–49 999 of a
// flat world, as flatWorldDigest writes them. The values were computed
// before the world's draws were rewritten to continue a per-purpose
// hash prefix, so they pin that the rewrite moved no bit.
var flatGolden = []struct {
	seed   uint64
	advPct float64
	sha256 string
}{
	{1, 0, "f72a2ef423b4fda062009abbb3848f7e1f85dd2f9cf02291214c1a98504f640c"},
	{1, 12, "014cde69fe04ea107dc7decb410bac68a42ee1b88eb5538fd12cf0e6cc026580"},
	{7, 0, "76b0387ecc257a0052a0d87735b552e906924a32a5f7278a400248493af270df"},
	{7, 12, "98083ac977959e31b58c4b081330a0ce83e1261f952d741a2d0ed09b3c32dc98"},
	{1<<63 + 5, 0, "95642891d82c7a900d1130c10d0fdf667cc3d2f8c7f97fadae0fb3d966d608df"},
	{1<<63 + 5, 12, "c6886d101bed1812f5d43af4d7151493f8f738016310bce03287e27bf190a263"},
}

// TestFlatWorldGolden pins the flat world bit for bit: the assignment
// draw, the family, the adversarial spec and variant, the provider, the
// name (DomainName) and ground truth of each domain, and what LookupMX, LookupA
// (every exchange, and the self-hosted "mail." name) and DelegationStale
// answer for it.
func TestFlatWorldGolden(t *testing.T) {
	const n = 50_000
	for _, g := range flatGolden {
		fw, err := NewFlatWorld(FlatConfig{Seed: g.seed, NumDomains: n, AdversarialPercent: g.advPct})
		if err != nil {
			t.Fatal(err)
		}
		if got := flatWorldDigest(fw, n); got != g.sha256 {
			t.Errorf("seed %d, %.0f%% adversarial: digest %s, want %s", g.seed, g.advPct, got, g.sha256)
		}
	}
}

// flatWorldDigest writes one line per fact of domains 0..n-1 into a
// SHA-256 and returns its hex digest.
func flatWorldDigest(fw *FlatWorld, n int) string {
	ctx := context.Background()
	r := fw.Resolver().(flatResolver)
	h := sha256.New()
	answer := func(what string, v any, err error) {
		if err != nil {
			fmt.Fprintf(h, " %s!%v", what, err)
			return
		}
		fmt.Fprintf(h, " %s=%v", what, v)
	}
	for i := 0; i < n; i++ {
		u := fw.draw(i)
		spec, variant := fw.advSpec(i, u)
		p, ok := fw.provider(u)
		id := "-"
		if p != nil {
			id = p.id
		}
		name := fw.DomainName(i)
		fmt.Fprintf(h, "%d %x %s %+v %x %s %v %s %s", i, math.Float64bits(u),
			fw.family(u), spec, variant, id, ok, name, fw.TruthCompany(i))
		mxs, err := r.LookupMX(ctx, name)
		answer("mx", mxs, err)
		for _, mx := range mxs {
			addrs, err := r.LookupA(ctx, mx.Exchange)
			answer(mx.Exchange, addrs, err)
		}
		addrs, err := r.LookupA(ctx, "mail."+name)
		answer("mail", addrs, err)
		fmt.Fprintf(h, " stale=%v\n", r.DelegationStale(ctx, name))
	}
	return hex.EncodeToString(h.Sum(nil))
}
