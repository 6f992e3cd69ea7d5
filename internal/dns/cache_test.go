package dns

import (
	"context"
	"testing"
	"time"
)

func cachedMsg(ttl uint32) *Message {
	return &Message{
		Header: Header{Response: true, Authoritative: true},
		Answers: []RR{{Name: "x.test.", Type: TypeA, Class: ClassIN, TTL: ttl,
			Data: AData{Addr: mustAddr("10.0.0.1")}}},
	}
}

func TestCachePositiveTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	c.Put("x.test", TypeA, cachedMsg(60))
	if _, ok := c.Get("X.TEST.", TypeA); !ok {
		t.Fatal("fresh entry missed (case/canonical form)")
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.Get("x.test", TypeA); !ok {
		t.Error("entry expired early")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get("x.test", TypeA); ok {
		t.Error("entry served after TTL")
	}
}

func TestCacheMinimumAnswerTTL(t *testing.T) {
	now := time.Unix(0, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	msg := cachedMsg(300)
	msg.Answers = append(msg.Answers, RR{Name: "x.test.", Type: TypeA, Class: ClassIN, TTL: 10,
		Data: AData{Addr: mustAddr("10.0.0.2")}})
	c.Put("x.test", TypeA, msg)
	now = now.Add(11 * time.Second)
	if _, ok := c.Get("x.test", TypeA); ok {
		t.Error("minimum TTL not honored")
	}
}

func TestCacheNegativeViaSOA(t *testing.T) {
	now := time.Unix(0, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	neg := &Message{
		Header: Header{Response: true, RCode: RCodeNXDomain},
		Authority: []RR{{Name: "test.", Type: TypeSOA, Class: ClassIN, TTL: 600, Data: SOAData{
			MName: "ns.test.", RName: "h.test.", Minimum: 30}}},
	}
	c.Put("gone.test", TypeA, neg)
	if msg, ok := c.Get("gone.test", TypeA); !ok || msg.Header.RCode != RCodeNXDomain {
		t.Fatal("negative answer not cached")
	}
	now = now.Add(31 * time.Second)
	if _, ok := c.Get("gone.test", TypeA); ok {
		t.Error("negative answer outlived SOA minimum")
	}
}

func TestCacheSkipsUncacheable(t *testing.T) {
	c := NewCache()
	c.Put("x.test", TypeA, &Message{Header: Header{Response: true}})
	c.Put("y.test", TypeA, cachedMsg(0))
	if c.Len() != 0 {
		t.Errorf("uncacheable responses stored: %d", c.Len())
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache()
	c.MaxEntries = 8
	for i := 0; i < 20; i++ {
		c.Put(string(rune('a'+i))+".test", TypeA, cachedMsg(60))
	}
	if c.Len() > 8 {
		t.Errorf("cache exceeded bound: %d", c.Len())
	}
}

func TestIterativeResolverUsesCache(t *testing.T) {
	itn := buildIterTestNet(t)
	r := itn.resolver(t)
	r.Cache = NewCache()
	ctx := context.Background()
	if _, err := r.LookupA(ctx, "mx1.example.com"); err != nil {
		t.Fatal(err)
	}
	before := itn.queries.Load()
	if _, err := r.LookupA(ctx, "mx1.example.com"); err != nil {
		t.Fatal(err)
	}
	if itn.queries.Load() != before {
		t.Errorf("cached lookup touched the wire: %d extra queries", itn.queries.Load()-before)
	}
	// Negative answers cache too.
	if _, err := r.LookupA(ctx, "missing.example.com"); err == nil {
		t.Fatal("expected NXDOMAIN")
	}
	before = itn.queries.Load()
	if _, err := r.LookupA(ctx, "missing.example.com"); err == nil {
		t.Fatal("expected NXDOMAIN")
	}
	if itn.queries.Load() != before {
		t.Errorf("negative answer not cached: %d extra queries", itn.queries.Load()-before)
	}
}
