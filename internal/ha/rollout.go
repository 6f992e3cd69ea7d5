package ha

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"

	"mxmap/internal/serve"
)

// RolloutReport is one rolling rollout's outcome: a per-replica swap
// record in fleet order, whether the whole fleet reached the new epoch,
// and — on abort — what failed and how many advanced replicas were
// swapped back.
type RolloutReport struct {
	Replicas  []ReplicaRollout `json:"replicas"`
	Completed bool             `json:"completed"`
	// Aborted carries the failing replica's error when the rollout
	// halted; the fleet keeps answering from the old epoch.
	Aborted string `json:"aborted,omitempty"`
	// RolledBack counts already-advanced replicas swapped back to the
	// previous snapshot after an abort.
	RolledBack int `json:"rolled_back,omitempty"`
}

// ReplicaRollout records one replica's swap inside a rollout.
type ReplicaRollout struct {
	Name      string `json:"name"`
	FromEpoch uint64 `json:"from_epoch"`
	ToEpoch   uint64 `json:"to_epoch"`
	// Reused and Reinferred mirror the replica's delta-inference stats
	// for the swap; SwapLatencyNS its build-through-drain wall time on
	// the replica's own service clock.
	Reused        int   `json:"reused"`
	Reinferred    int   `json:"reinferred"`
	SwapLatencyNS int64 `json:"swap_latency_ns"`
	// RolledBack marks a replica that advanced and was swapped back
	// after a later replica's failure aborted the rollout.
	RolledBack bool `json:"rolled_back,omitempty"`
}

// Rollout rolls newPath across the fleet one replica at a time: POST
// /v1/swap on the replica, then verify by probe that it is serving the
// new epoch (ready, not stale) before advancing to the next. Queries
// keep flowing the whole time — each replica answers from its old
// store until Swap publishes the new one, and the balancer routes
// around whichever member is mid-swap if it ever answers slowly.
//
// On a failed swap the rollout aborts: the failing replica is left
// serving its old snapshot (the replica-side swap contract marks it
// stale but keeps answering), replicas not yet reached never see the
// new path, and — when prevPath names the previous snapshot — replicas
// that had already advanced are swapped back so the fleet converges on
// the old epoch instead of straddling two.
func (b *Balancer) Rollout(ctx context.Context, newPath, prevPath string) (*RolloutReport, error) {
	if newPath == "" {
		return nil, errors.New("ha: rollout requires a snapshot path")
	}
	b.rolloutMu.Lock()
	defer b.rolloutMu.Unlock()
	b.c.rollouts.Add(1)
	if b.cfg.Logger != nil {
		b.cfg.Logger.Info("ha: rollout starting", "path", newPath, "replicas", len(b.pool.replicas))
	}

	report := &RolloutReport{}
	var advanced []*Replica
	for i, r := range b.pool.replicas {
		rec, err := b.swapReplica(ctx, r, newPath)
		if err != nil {
			b.c.rolloutAborts.Add(1)
			report.Aborted = err.Error()
			if b.cfg.Logger != nil {
				b.cfg.Logger.Warn("ha: rollout aborted", "replica", r.cfg.Name, "err", err)
			}
			b.rollback(ctx, advanced, prevPath, report)
			return report, fmt.Errorf("ha: rollout aborted at replica %d/%d: %w",
				i+1, len(b.pool.replicas), err)
		}
		b.c.rolloutSwaps.Add(1)
		advanced = append(advanced, r)
		report.Replicas = append(report.Replicas, rec)
	}
	report.Completed = true
	if b.cfg.Logger != nil {
		b.cfg.Logger.Info("ha: rollout complete", "replicas", len(report.Replicas))
	}
	return report, nil
}

// swapReplica swaps one replica to path and verifies the flip: the
// swap's ChurnReport names the epoch the replica must now be serving,
// and a fresh probe round must see it ready on exactly that epoch,
// not stale. Counting (RolloutSwaps vs Rollbacks) is the caller's.
func (b *Balancer) swapReplica(ctx context.Context, r *Replica, path string) (ReplicaRollout, error) {
	var rec ReplicaRollout
	resp, err := r.do(ctx, "POST", "/v1/swap?path="+url.QueryEscape(path), swapTimeout, false)
	if err != nil {
		return rec, fmt.Errorf("swap %s: %w", r.cfg.Name, err)
	}
	if resp.Status != 200 {
		return rec, fmt.Errorf("swap %s: status %d: %s", r.cfg.Name, resp.Status, errText(resp.Body))
	}
	var churn serve.ChurnReport
	if err := json.Unmarshal(resp.Body, &churn); err != nil {
		return rec, fmt.Errorf("swap %s: bad churn report: %w", r.cfg.Name, err)
	}
	if !b.pool.probeReplica(ctx, r) {
		return rec, fmt.Errorf("verify %s: not ready after swap", r.cfg.Name)
	}
	info := r.info()
	if info.Stale || info.Epoch != churn.ToEpoch {
		return rec, fmt.Errorf("verify %s: serving epoch %d stale=%v, want epoch %d",
			r.cfg.Name, info.Epoch, info.Stale, churn.ToEpoch)
	}
	return ReplicaRollout{
		Name:          r.cfg.Name,
		FromEpoch:     churn.FromEpoch,
		ToEpoch:       churn.ToEpoch,
		Reused:        churn.Delta.Reused,
		Reinferred:    churn.Delta.Reinferred,
		SwapLatencyNS: churn.SwapLatencyNS,
	}, nil
}

// rollback swaps already-advanced replicas back to prevPath after an
// abort. Best effort: a replica that also fails to swap back stays on
// the new epoch but is marked failed in its own books; without a
// prevPath there is nothing to converge to and the advanced replicas
// keep serving the new epoch (the old one is gone replica-side).
func (b *Balancer) rollback(ctx context.Context, advanced []*Replica, prevPath string, report *RolloutReport) {
	if prevPath == "" || len(advanced) == 0 {
		return
	}
	for i, r := range advanced {
		if _, err := b.swapReplica(ctx, r, prevPath); err != nil {
			if b.cfg.Logger != nil {
				b.cfg.Logger.Warn("ha: rollback failed", "replica", r.cfg.Name, "err", err)
			}
			continue
		}
		b.c.rollbacks.Add(1)
		report.RolledBack++
		report.Replicas[i].RolledBack = true
	}
}

// handleRollout answers POST /v1/rollout?path=NEW&prev=OLD on the
// balancer. Gated by Config.AllowRollout for the same reason the
// replica swap endpoint is gated: it loads operator-named files.
func (b *Balancer) handleRollout(ctx context.Context, req *serve.Request) serve.Response {
	if req.Method != "POST" {
		return serve.ErrorResponse(405, "method not allowed")
	}
	if !b.cfg.AllowRollout {
		return serve.ErrorResponse(403, "rollout endpoint disabled")
	}
	path := req.Query.Get("path")
	if path == "" {
		return serve.ErrorResponse(400, "missing path parameter")
	}
	report, err := b.Rollout(ctx, path, req.Query.Get("prev"))
	if err != nil {
		if report == nil {
			return serve.ErrorResponse(500, err.Error())
		}
		// The report carries the abort detail; 500 tells the operator
		// the fleet is still on the old epoch.
		return serve.JSONResponse(500, report)
	}
	return serve.JSONResponse(200, report)
}

// errText extracts the error field from a JSON error body, falling back
// to the raw bytes.
func errText(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(body)
}
