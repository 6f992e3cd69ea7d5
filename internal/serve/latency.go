package serve

// Per-endpoint latency histograms. Buckets are log-scale (powers of two
// in microseconds) and bounded, so one histogram is a fixed, comparable
// array no matter how hostile the traffic. Observation is driven by the
// injectable Config.Clock — two reads per request, begin and end — so a
// stepped test clock makes every recorded latency, and therefore every
// bucket count, exactly reproducible. The HA balancer merges the front
// server's histograms into its /v1/stats.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumLatencyBuckets is the fixed bucket count: bucket i spans
// [2^(i-1), 2^i) microseconds (bucket 0 is <= 1µs), and the last bucket
// absorbs everything past ~4.2s.
const NumLatencyBuckets = 24

// endpointLabels enumerates the per-endpoint histograms. Unknown paths
// share the final "other" slot so hostile path churn cannot grow state.
var endpointLabels = [...]string{
	"/healthz",
	"/readyz",
	"/v1/domain",
	"/v1/share",
	"/v1/concentration",
	"/v1/churn",
	"/v1/stats",
	"/v1/swap",
	"other",
}

// NumEndpoints is how many endpoint histograms a server keeps.
const NumEndpoints = len(endpointLabels)

// EndpointIndex maps a request path to its histogram slot.
func EndpointIndex(path string) int {
	for i, l := range endpointLabels[:NumEndpoints-1] {
		if path == l {
			return i
		}
	}
	return NumEndpoints - 1
}

// EndpointLabel names histogram slot i.
func EndpointLabel(i int) string { return endpointLabels[i] }

// LatencyBuckets is one histogram's counts, comparable and exact.
type LatencyBuckets [NumLatencyBuckets]uint64

// latencyBucket places a duration: bits.Len of the floor-microsecond
// value, clamped to the final bucket.
func latencyBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= NumLatencyBuckets {
		return NumLatencyBuckets - 1
	}
	return i
}

// BucketBound is the exclusive upper bound of bucket i (the last bucket
// is unbounded and reports its lower bound).
func BucketBound(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	if i >= NumLatencyBuckets-1 {
		i = NumLatencyBuckets - 2
	}
	return time.Microsecond << i
}

// Count totals the observations in the histogram.
func (b LatencyBuckets) Count() uint64 {
	var n uint64
	for _, c := range b {
		n += c
	}
	return n
}

// Quantile returns the upper bound of the bucket where the q-quantile
// (0 < q <= 1) falls, and false when the histogram is empty.
func (b LatencyBuckets) Quantile(q float64) (time.Duration, bool) {
	total := b.Count()
	if total == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range b {
		cum += c
		if cum >= target {
			return BucketBound(i), true
		}
	}
	return BucketBound(NumLatencyBuckets - 1), true
}

// LatencyHist is the live atomic histogram.
type LatencyHist struct {
	buckets [NumLatencyBuckets]atomic.Uint64
}

// Observe records one latency.
func (h *LatencyHist) Observe(d time.Duration) {
	h.buckets[latencyBucket(d)].Add(1)
}

// Snapshot copies the counts out.
func (h *LatencyHist) Snapshot() LatencyBuckets {
	var b LatencyBuckets
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
	}
	return b
}

// EndpointLatency is one endpoint's histogram as served by /v1/stats.
type EndpointLatency struct {
	Count   uint64         `json:"count"`
	P50NS   int64          `json:"p50_ns"`
	P99NS   int64          `json:"p99_ns"`
	Buckets LatencyBuckets `json:"buckets"`
}

// LatencySnapshot returns the per-endpoint histograms that have
// observations, keyed by endpoint label. Empty when no Clock was
// configured (observation is opt-in so whole-struct counter tests stay
// exact without pinning wall-clock buckets).
func (s *Server) LatencySnapshot() map[string]EndpointLatency {
	if s.cfg.Clock == nil {
		return nil
	}
	out := make(map[string]EndpointLatency)
	for i := range s.lat {
		b := s.lat[i].Snapshot()
		n := b.Count()
		if n == 0 {
			continue
		}
		p50, _ := b.Quantile(0.50)
		p99, _ := b.Quantile(0.99)
		out[EndpointLabel(i)] = EndpointLatency{
			Count: n, P50NS: p50.Nanoseconds(), P99NS: p99.Nanoseconds(), Buckets: b,
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// LatencyQuantile reports the q-quantile of path's endpoint histogram
// and how many observations back it. The benchmark harness (bench/)
// reads its serving p50 and p99 from this.
func (s *Server) LatencyQuantile(path string, q float64) (time.Duration, uint64) {
	b := s.lat[EndpointIndex(path)].Snapshot()
	d, ok := b.Quantile(q)
	if !ok {
		return 0, 0
	}
	return d, b.Count()
}
