package serve

import (
	"math"
	"slices"
	"strconv"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
)

// NoProviderLabel names the empty side of a provider flow: a domain
// that had (or has) no attributable mail provider.
const NoProviderLabel = "(none)"

// SnapshotMeta identifies the snapshot an answer was computed from.
// Epoch is the service-local load generation — it increments on every
// successful load or swap, so clients can detect flips.
type SnapshotMeta struct {
	Date    string `json:"date"`
	Corpus  string `json:"corpus"`
	Epoch   uint64 `json:"epoch"`
	Domains int    `json:"domains"`
}

// LookupResponse answers /v1/domain?name=X.
type LookupResponse struct {
	Domain    string             `json:"domain"`
	Found     bool               `json:"found"`
	Primary   string             `json:"primary,omitempty"`
	Credits   map[string]float64 `json:"credits,omitempty"`
	Rank      int                `json:"rank,omitempty"`
	HasSMTP   bool               `json:"has_smtp,omitempty"`
	Untrusted bool               `json:"untrusted,omitempty"`
	Stale     bool               `json:"stale,omitempty"`
	Snapshot  SnapshotMeta       `json:"snapshot"`
}

// appendJSON appends json.Marshal(r) to dst without reflection: the
// /v1/domain body, the one answer written per lookup. Strings go
// through the snapshot line codec's encoder, credits are written in
// encoding/json's map-key order (sorted), and false stands for
// json.Marshal's error on a non-finite credit. FuzzLookupJSON holds the
// bytes to json.Marshal's.
func (r *LookupResponse) appendJSON(dst []byte) ([]byte, bool) {
	dst = append(dst, `{"domain":`...)
	dst = dataset.AppendJSONString(dst, r.Domain)
	dst = append(dst, `,"found":`...)
	dst = strconv.AppendBool(dst, r.Found)
	if r.Primary != "" {
		dst = append(dst, `,"primary":`...)
		dst = dataset.AppendJSONString(dst, r.Primary)
	}
	if len(r.Credits) > 0 {
		var arr [8]string // a lookup has a handful of credits
		keys := arr[:0]
		for k := range r.Credits {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for i, k := range keys {
			if i == 0 {
				dst = append(dst, `,"credits":{`...)
			} else {
				dst = append(dst, ',')
			}
			dst = dataset.AppendJSONString(dst, k)
			dst = append(dst, ':')
			var ok bool
			if dst, ok = appendFloat(dst, r.Credits[k]); !ok {
				return dst, false
			}
		}
		dst = append(dst, '}')
	}
	if r.Rank != 0 {
		dst = append(dst, `,"rank":`...)
		dst = strconv.AppendInt(dst, int64(r.Rank), 10)
	}
	if r.HasSMTP {
		dst = append(dst, `,"has_smtp":true`...)
	}
	if r.Untrusted {
		dst = append(dst, `,"untrusted":true`...)
	}
	if r.Stale {
		dst = append(dst, `,"stale":true`...)
	}
	m := &r.Snapshot
	dst = append(dst, `,"snapshot":{"date":`...)
	dst = dataset.AppendJSONString(dst, m.Date)
	dst = append(dst, `,"corpus":`...)
	dst = dataset.AppendJSONString(dst, m.Corpus)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, m.Epoch, 10)
	dst = append(dst, `,"domains":`...)
	dst = strconv.AppendInt(dst, int64(m.Domains), 10)
	return append(dst, "}}"...), true
}

// appendFloat appends f as encoding/json writes a float64: shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21 up, with
// the exponent's leading zero dropped. False for NaN and the
// infinities, which JSON cannot spell.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// ShareEntry is one company's market share.
type ShareEntry struct {
	Company string  `json:"company"`
	Domains float64 `json:"domains"`
	Percent float64 `json:"percent"`
}

// ShareResponse answers /v1/share?top=N.
type ShareResponse struct {
	Top      []ShareEntry `json:"top"`
	Stale    bool         `json:"stale,omitempty"`
	Snapshot SnapshotMeta `json:"snapshot"`
}

// ConcentrationResponse answers /v1/concentration.
type ConcentrationResponse struct {
	HHI                float64      `json:"hhi"`
	CR1                float64      `json:"cr1"`
	CR4                float64      `json:"cr4"`
	CR8                float64      `json:"cr8"`
	EffectiveCompanies float64      `json:"effective_companies"`
	Stale              bool         `json:"stale,omitempty"`
	Snapshot           SnapshotMeta `json:"snapshot"`
}

// ProviderFlow counts domains whose primary provider moved between two
// snapshots. Either side may be NoProviderLabel.
type ProviderFlow struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count int    `json:"count"`
}

// ChurnReport describes what the latest swap changed: the raw snapshot
// diff, how much inference work the incremental path reused, and the
// provider-to-provider migration flows among churned domains.
type ChurnReport struct {
	FromDate  string            `json:"from_date"`
	ToDate    string            `json:"to_date"`
	FromEpoch uint64            `json:"from_epoch"`
	ToEpoch   uint64            `json:"to_epoch"`
	Diff      dataset.DiffStats `json:"diff"`
	Delta     core.DeltaStats   `json:"delta"`
	Flows     []ProviderFlow    `json:"flows,omitempty"`
	// FullRecompute reports that the prior snapshot file was no longer
	// readable and the swap fell back to inferring from scratch (Diff
	// and Flows are empty in that case).
	FullRecompute bool `json:"full_recompute,omitempty"`
	// SwapLatencyNS is the wall time of the whole swap, build through
	// epoch drain, on the service clock.
	SwapLatencyNS int64 `json:"swap_latency_ns"`
}

// ChurnResponse answers /v1/churn.
type ChurnResponse struct {
	Swaps uint64       `json:"swaps"`
	Last  *ChurnReport `json:"last,omitempty"`
}

// HealthResponse answers /healthz (always 200: liveness plus state).
type HealthResponse struct {
	State string `json:"state"`
	Stale bool   `json:"stale,omitempty"`
	Epoch uint64 `json:"epoch"`
}

// ReadyResponse answers /readyz (200 only when queries can be served).
type ReadyResponse struct {
	Ready bool   `json:"ready"`
	State string `json:"state"`
	Stale bool   `json:"stale,omitempty"`
}

// StatsResponse answers /v1/stats. Latency carries the per-endpoint
// histograms when the server was built with an observation Clock.
type StatsResponse struct {
	Server  ServerStats                `json:"server"`
	Service ServiceStats               `json:"service"`
	Latency map[string]EndpointLatency `json:"latency,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}
