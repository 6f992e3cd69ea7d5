package serve

import (
	"testing"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/netsim"
)

// TestNotLoaded503RetryAfter pins the shed-class header contract on the
// data plane: a service with no snapshot answers 503 with Retry-After,
// exactly like the 429 at the connection cap, so balancers and clients back
// off instead of hammering a server that is still loading.
func TestNotLoaded503RetryAfter(t *testing.T) {
	svc := NewService(core.ApproachMXOnly, ServiceConfig{})
	n := netsim.New()
	const addr = "203.0.113.42:80"
	startTestServer(t, n, addr, Config{Service: svc})
	c := dialClient(t, n, addr)

	for _, target := range []string{
		"/v1/domain?name=one.example", "/v1/share", "/v1/concentration",
	} {
		hdr := c.get("GET", target, 503, nil)
		if hdr.Get("Retry-After") != "1" {
			t.Errorf("%s headers = %v, want Retry-After: 1", target, hdr)
		}
	}
}

// TestReadyz503RetryAfter covers the probe plane: a not-ready service
// (loading here, draining below) answers readyz 503 with the same
// back-off hint.
func TestReadyz503RetryAfter(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)
	svc := NewService(core.ApproachMXOnly, ServiceConfig{})
	n := netsim.New()
	const addr = "203.0.113.43:80"
	srv := startTestServer(t, n, addr, Config{Service: svc})
	c := dialClient(t, n, addr)

	var ready ReadyResponse
	hdr := c.get("GET", "/readyz", 503, &ready)
	if ready.Ready || hdr.Get("Retry-After") != "1" {
		t.Fatalf("loading readyz = %+v %v, want 503 + Retry-After: 1", ready, hdr)
	}

	// Load, verify the hint disappears on the 200, then drain and watch
	// it come back.
	if _, err := svc.Load(oldPath); err != nil {
		t.Fatal(err)
	}
	hdr = c.get("GET", "/readyz", 200, &ready)
	if !ready.Ready || hdr.Get("Retry-After") != "" {
		t.Fatalf("serving readyz = %+v %v, want 200 without Retry-After", ready, hdr)
	}

	svc.BeginDrain()
	hdr = c.get("GET", "/readyz", 503, &ready)
	if ready.Ready || ready.State != "draining" || hdr.Get("Retry-After") != "1" {
		t.Fatalf("draining readyz = %+v %v, want 503 + Retry-After: 1", ready, hdr)
	}
	// The books settle to zero lost (the final response's accounting may
	// trail the client's read by a beat).
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Lost() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server lost %d requests", srv.Stats().Lost())
		}
		time.Sleep(time.Millisecond)
	}
}
