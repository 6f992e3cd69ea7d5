package scan

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/netsim"
	"mxmap/internal/smtp"
)

func TestRetryDoStopsOnDefinitive(t *testing.T) {
	rs := newRetryState(&RetryPolicy{Attempts: 5, BaseBackoff: time.Microsecond})
	calls := 0
	class, retries := rs.do(context.Background(), func() (dataset.FailureClass, bool) {
		calls++
		return dataset.FailNXDomain, true
	})
	if calls != 1 || retries != 0 || class != dataset.FailNXDomain {
		t.Errorf("calls=%d retries=%d class=%s", calls, retries, class)
	}
}

func TestRetryDoRecoversTransient(t *testing.T) {
	rs := newRetryState(&RetryPolicy{Attempts: 4, BaseBackoff: time.Microsecond})
	calls := 0
	class, retries := rs.do(context.Background(), func() (dataset.FailureClass, bool) {
		calls++
		if calls < 3 {
			return dataset.FailConnTimeout, true
		}
		return dataset.FailOK, true
	})
	if class != dataset.FailOK || retries != 2 {
		t.Errorf("class=%s retries=%d (calls=%d)", class, retries, calls)
	}
}

func TestRetryDoHonorsAttemptBound(t *testing.T) {
	rs := newRetryState(&RetryPolicy{Attempts: 3, BaseBackoff: time.Microsecond})
	calls := 0
	class, retries := rs.do(context.Background(), func() (dataset.FailureClass, bool) {
		calls++
		return dataset.FailDNSTimeout, true
	})
	if calls != 3 || retries != 2 || class != dataset.FailDNSTimeout {
		t.Errorf("calls=%d retries=%d class=%s", calls, retries, class)
	}
}

func TestRetryDoHonorsBudget(t *testing.T) {
	rs := newRetryState(&RetryPolicy{Attempts: 10, BaseBackoff: time.Microsecond, Budget: 3})
	totalCalls := 0
	for i := 0; i < 5; i++ {
		rs.do(context.Background(), func() (dataset.FailureClass, bool) {
			totalCalls++
			return dataset.FailConnTimeout, true
		})
	}
	// 5 first attempts plus exactly 3 budgeted retries.
	if totalCalls != 8 {
		t.Errorf("total calls = %d, want 8", totalCalls)
	}
	if !rs.exhausted.Load() {
		t.Error("budget exhaustion not flagged")
	}
}

func TestRetryDoHonorsVeto(t *testing.T) {
	rs := newRetryState(&RetryPolicy{Attempts: 10, BaseBackoff: time.Microsecond})
	calls := 0
	_, retries := rs.do(context.Background(), func() (dataset.FailureClass, bool) {
		calls++
		return dataset.FailConnTimeout, calls < 2
	})
	if calls != 2 || retries != 1 {
		t.Errorf("calls=%d retries=%d; veto ignored", calls, retries)
	}
}

func TestRetryDoAbortsOnCancel(t *testing.T) {
	rs := newRetryState(&RetryPolicy{Attempts: 100, BaseBackoff: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, retries := rs.do(ctx, func() (dataset.FailureClass, bool) {
		calls++
		return dataset.FailConnTimeout, true
	})
	if calls != 1 || retries != 0 {
		t.Errorf("cancelled ctx: calls=%d retries=%d", calls, retries)
	}
}

func TestRetryBackoffBounds(t *testing.T) {
	rs := newRetryState(&RetryPolicy{Attempts: 8, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 400 * time.Millisecond})
	for n := 1; n <= 10; n++ {
		d := rs.backoff(n)
		if d < 50*time.Millisecond || d > 400*time.Millisecond {
			t.Errorf("backoff(%d) = %v outside [base/2, max]", n, d)
		}
	}
	// Exponential shape: attempt 3 raw delay is 400ms (capped), so the
	// jittered floor is 200ms.
	if d := rs.backoff(3); d < 200*time.Millisecond {
		t.Errorf("backoff(3) = %v, want >= 200ms", d)
	}
}

func TestBreakerOpensAndSkips(t *testing.T) {
	b := newBreakerSet(3)
	addr := netip.MustParseAddr("10.1.1.1")
	for i := 0; i < 2; i++ {
		if open := b.record(addr, dataset.FailConnTimeout); open {
			t.Fatalf("circuit open after %d failures", i+1)
		}
	}
	if ok, _ := b.allow(addr); !ok {
		t.Fatal("circuit open before threshold")
	}
	if open := b.record(addr, dataset.FailConnTimeout); !open {
		t.Fatal("circuit closed after threshold")
	}
	ok, tripped := b.allow(addr)
	if ok || tripped != dataset.FailConnTimeout {
		t.Errorf("allow after open: ok=%v class=%s", ok, tripped)
	}
	if b.opens.Load() != 1 || b.skips.Load() != 1 {
		t.Errorf("opens=%d skips=%d", b.opens.Load(), b.skips.Load())
	}
}

func TestBreakerResetsOnSuccess(t *testing.T) {
	b := newBreakerSet(3)
	addr := netip.MustParseAddr("10.1.1.2")
	b.record(addr, dataset.FailConnReset)
	b.record(addr, dataset.FailConnReset)
	b.record(addr, dataset.FailOK) // recovery clears the streak
	b.record(addr, dataset.FailConnReset)
	b.record(addr, dataset.FailConnReset)
	if ok, _ := b.allow(addr); !ok {
		t.Error("circuit opened despite interleaved success")
	}
	// Soft failures (proto, tls) never open a circuit.
	addr2 := netip.MustParseAddr("10.1.1.3")
	for i := 0; i < 10; i++ {
		b.record(addr2, dataset.FailProtoError)
	}
	if ok, _ := b.allow(addr2); !ok {
		t.Error("proto errors opened a circuit")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreakerSet(-1)
	addr := netip.MustParseAddr("10.1.1.4")
	for i := 0; i < 10; i++ {
		if open := b.record(addr, dataset.FailConnTimeout); open {
			t.Fatal("disabled breaker opened")
		}
	}
	if ok, _ := b.allow(addr); !ok {
		t.Error("disabled breaker denied a scan")
	}
}

// muteExchangeErr is what a dns.Client returns when an attempt outlives
// its timeout while the caller's context is still alive: the fabric
// drops datagrams to an address nobody listens on.
func muteExchangeErr(t *testing.T) error {
	t.Helper()
	n := netsim.New()
	cl := &dns.Client{Server: "10.9.9.9:53", Timeout: 5 * time.Millisecond,
		DialContext: func(_ context.Context, _, address string) (net.Conn, error) {
			return n.DialUDP(netip.MustParseAddrPort(address))
		}}
	defer cl.Close()
	_, err := cl.Exchange(context.Background(), "mute.test", dns.TypeMX)
	if err == nil {
		t.Fatal("exchange with a mute server succeeded")
	}
	if !isTimeout(err) {
		t.Errorf("isTimeout(%v) = false", err)
	}
	return err
}

func TestClassifyDNS(t *testing.T) {
	cases := []struct {
		err  error
		want dataset.FailureClass
	}{
		{nil, dataset.FailOK},
		{fmt.Errorf("wrap: %w", dns.ErrNoData), dataset.FailOK},
		{fmt.Errorf("wrap: %w", dns.ErrNXDomain), dataset.FailNXDomain},
		{fmt.Errorf("wrap: %w", dns.ErrServFail), dataset.FailDNSServFail},
		{context.DeadlineExceeded, dataset.FailDNSTimeout},
		{fmt.Errorf("dial: %w", timeoutErr{}), dataset.FailDNSTimeout},
		{muteExchangeErr(t), dataset.FailDNSTimeout},
		{errors.New("mystery"), dataset.FailDNSServFail},
	}
	for _, c := range cases {
		if got := ClassifyDNS(c.err); got != c.want {
			t.Errorf("ClassifyDNS(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

func TestClassifyScan(t *testing.T) {
	cases := []struct {
		name string
		res  smtp.ScanResult
		want dataset.FailureClass
	}{
		{"ok", smtp.ScanResult{Connected: true, Banner: "hi"}, dataset.FailOK},
		{"refused", smtp.ScanResult{Err: fmt.Errorf("dial: %w", syscall.ECONNREFUSED)}, dataset.FailConnRefused},
		{"dial reset", smtp.ScanResult{Err: fmt.Errorf("dial: %w", syscall.ECONNRESET)}, dataset.FailConnReset},
		{"dial timeout", smtp.ScanResult{Err: context.DeadlineExceeded}, dataset.FailConnTimeout},
		{"mid reset", smtp.ScanResult{Connected: true, Err: fmt.Errorf("read: %w", syscall.ECONNRESET)}, dataset.FailConnReset},
		{"read timeout", smtp.ScanResult{Connected: true, Err: fmt.Errorf("read: %w", timeoutErr{})}, dataset.FailConnTimeout},
		{"garbage greeting", smtp.ScanResult{Connected: true, Err: errors.New("smtp: unexpected greeting 999")}, dataset.FailProtoError},
		{"tls broken", smtp.ScanResult{Connected: true, Banner: "hi", SupportsSTARTTLS: true,
			Err: errors.New("smtp: TLS handshake: eof")}, dataset.FailTLSError},
		{"tls ok ehlo err later", smtp.ScanResult{Connected: true, Banner: "hi", SupportsSTARTTLS: true,
			TLSHandshakeOK: true, Err: errors.New("post-tls trouble")}, dataset.FailProtoError},
	}
	for _, c := range cases {
		if got := ClassifyScan(&c.res); got != c.want {
			t.Errorf("%s: ClassifyScan = %s, want %s", c.name, got, c.want)
		}
	}
}

// timeoutErr implements net.Error's timeout facet.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "fake timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }
