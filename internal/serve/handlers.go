package serve

import (
	"context"
	"strconv"
	"strings"
)

// handle routes one admitted request: through Config.Handler when one
// is plugged in (the HA balancer front), otherwise through the built-in
// Service routes. A data handler loads the published store once and
// reads only that store, so a concurrent hot-swap can only give it one
// fully-built snapshot, with that snapshot's stale mark. body is the
// caller's scratch for a /v1/domain answer: the response aliases it, so
// the caller writes the response out before it hands the same scratch
// to the next request.
func (s *Server) handle(ctx context.Context, req *Request, body *[]byte) Response {
	if gate := s.cfg.Gate; gate != nil {
		gate(req.Path)
	}
	if s.cfg.Handler != nil {
		return s.cfg.Handler(ctx, req)
	}
	if req.Method != "GET" && !(req.Method == "POST" && req.Path == "/v1/swap") {
		return ErrorResponse(405, "method not allowed")
	}
	switch req.Path {
	case "/healthz":
		return s.handleHealthz()
	case "/readyz":
		return s.handleReadyz()
	case "/v1/domain":
		return s.handleDomain(req, body)
	case "/v1/share":
		return s.handleShare(req)
	case "/v1/concentration":
		return s.handleConcentration()
	case "/v1/churn":
		return s.handleChurn()
	case "/v1/stats":
		return s.handleStats()
	case "/v1/swap":
		return s.handleSwap(ctx, req)
	}
	return ErrorResponse(404, "not found")
}

// dataStore loads the published store for a data endpoint, accounting
// stale serves. nil means no snapshot is loaded yet.
func (s *Server) dataStore() *Store {
	store := s.cfg.Service.cur.Load()
	if store != nil && store.stale {
		s.stats.staleServes.Add(1)
	}
	return store
}

// notLoaded carries Retry-After (via ErrorResponse's 503 rule): a
// loading or load-failed service is worth polling again shortly.
var notLoaded = ErrorResponse(503, "no snapshot loaded")

// handleDomain answers one lookup for the canonical form of the name —
// lower case, one trailing dot dropped, as snapshots key their domains —
// and echoes that form. An already-canonical name costs no copy. The
// body is written into *body.
func (s *Server) handleDomain(req *Request, body *[]byte) Response {
	name := req.Query.Get("name")
	if name == "" {
		return ErrorResponse(400, "missing name parameter")
	}
	name = strings.TrimSuffix(strings.ToLower(name), ".")
	store := s.dataStore()
	if store == nil {
		return notLoaded
	}
	att, found := store.domains[name]
	s.stats.lookups.Add(1)
	resp := LookupResponse{Domain: name, Found: found, Stale: store.stale, Snapshot: store.meta}
	if found {
		resp.Primary = att.Primary()
		resp.Credits = att.Credits
		resp.Rank = att.Rank
		resp.HasSMTP = att.HasSMTP
		resp.Untrusted = att.Untrusted
	} else {
		s.stats.lookupMisses.Add(1)
	}
	b, ok := resp.appendJSON((*body)[:0])
	if !ok {
		return ErrorResponse(500, "response encoding failure")
	}
	*body = b
	return Response{Status: 200, Body: b}
}

// defaultTop is how many companies /v1/share lists without a top
// parameter.
const defaultTop = 15

func (s *Server) handleShare(req *Request) Response {
	store := s.dataStore()
	if store == nil {
		return notLoaded
	}
	n := defaultTop
	if raw := req.Query.Get("top"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			return ErrorResponse(400, "top must be a positive integer")
		}
		n = v
	}
	n = min(n, len(store.shares))
	return JSONResponse(200, ShareResponse{Top: store.shares[:n], Stale: store.stale, Snapshot: store.meta})
}

func (s *Server) handleConcentration() Response {
	store := s.dataStore()
	if store == nil {
		return notLoaded
	}
	c := store.conc
	return JSONResponse(200, ConcentrationResponse{
		HHI: c.HHI, CR1: c.CR1, CR4: c.CR4, CR8: c.CR8,
		EffectiveCompanies: c.EffectiveCompanies,
		Stale:              store.stale,
		Snapshot:           store.meta,
	})
}

func (s *Server) handleChurn() Response {
	svc := s.cfg.Service
	return JSONResponse(200, ChurnResponse{Swaps: svc.Stats().Swaps, Last: svc.Churn()})
}

func (s *Server) handleStats() Response {
	return JSONResponse(200, StatsResponse{
		Server:  s.Stats(),
		Service: s.cfg.Service.Stats(),
		Latency: s.LatencySnapshot(),
	})
}

func (s *Server) handleSwap(ctx context.Context, req *Request) Response {
	if !s.cfg.AllowSwap {
		return ErrorResponse(403, "swap endpoint disabled")
	}
	path := req.Query.Get("path")
	if path == "" {
		return ErrorResponse(400, "missing path parameter")
	}
	rep, err := s.cfg.Service.Swap(ctx, path)
	if err != nil {
		// The old snapshot keeps serving, marked stale; tell the
		// operator what failed.
		return ErrorResponse(500, err.Error())
	}
	return JSONResponse(200, rep)
}

func (s *Server) handleHealthz() Response {
	st := s.cfg.Service.Stats()
	return JSONResponse(200, HealthResponse{State: st.State, Stale: st.Stale, Epoch: st.Epoch})
}

func (s *Server) handleReadyz() Response {
	svc := s.cfg.Service
	r := ReadyResponse{Ready: svc.Ready(), State: svc.State().String(), Stale: svc.Stale()}
	resp := JSONResponse(200, r)
	if !r.Ready {
		// Loading and draining both answer 503 with a back-off hint so
		// balancers and clients know to come back, not give up.
		resp.Status = 503
		resp.RetryAfter = true
	}
	return resp
}
