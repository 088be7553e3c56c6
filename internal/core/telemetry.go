package core

import (
	"sort"
	"sync/atomic"
	"time"

	"amcast/internal/metrics"
	"amcast/internal/ring"
	"amcast/internal/transport"
)

// ringStallRec accumulates merge-stall telemetry for one ring.
type ringStallRec struct {
	hist  *metrics.Histogram
	total atomic.Int64
}

// observeMergeStall records one wait of d on ring g in the per-ring stall
// telemetry. Runs on the merge goroutine.
func (n *Node) observeMergeStall(g transport.RingID, d time.Duration) {
	if d <= 0 {
		return
	}
	rec := n.stallRec(g)
	rec.hist.Record(d)
	rec.total.Add(int64(d))
}

// stallRec returns (lazily creating) the stall record of one ring.
func (n *Node) stallRec(g transport.RingID) *ringStallRec {
	n.stallMu.Lock()
	defer n.stallMu.Unlock()
	rec, ok := n.stalls[g]
	if !ok {
		if n.stalls == nil {
			n.stalls = make(map[transport.RingID]*ringStallRec)
		}
		rec = &ringStallRec{hist: metrics.NewHistogram()}
		n.stalls[g] = rec
	}
	return rec
}

// RingStall summarizes how long the deterministic merge has waited on one
// subscribed ring.
type RingStall struct {
	Ring  transport.RingID
	Total time.Duration
	Count uint64
	Mean  time.Duration
	Max   time.Duration
	P99   time.Duration
}

// MergeStalls snapshots the per-ring merge-stall telemetry, sorted by
// total stall descending.
func (n *Node) MergeStalls() []RingStall {
	n.stallMu.Lock()
	recs := make(map[transport.RingID]*ringStallRec, len(n.stalls))
	for g, rec := range n.stalls {
		recs[g] = rec
	}
	n.stallMu.Unlock()
	out := make([]RingStall, 0, len(recs))
	for g, rec := range recs {
		out = append(out, RingStall{
			Ring:  g,
			Total: time.Duration(rec.total.Load()),
			Count: rec.hist.Count(),
			Mean:  rec.hist.Mean(),
			Max:   rec.hist.Max(),
			P99:   rec.hist.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// RingFlowStats returns a joined ring's delivery-stage flow-control
// counters (lag, overruns, catch-up accounting), or ok=false if the
// process has not joined the ring.
func (n *Node) RingFlowStats(ringID transport.RingID) (ring.FlowStats, bool) {
	n.mu.Lock()
	rn := n.rings[ringID]
	n.mu.Unlock()
	if rn == nil {
		return ring.FlowStats{}, false
	}
	return rn.FlowStats(), true
}

// RingStats reports a joined ring's decided and skipped instance
// counters (decided includes skipped); ok=false if not joined.
func (n *Node) RingStats(ringID transport.RingID) (decided, skipped uint64, ok bool) {
	n.mu.Lock()
	rn := n.rings[ringID]
	n.mu.Unlock()
	if rn == nil {
		return 0, 0, false
	}
	decided, skipped = rn.Stats()
	return decided, skipped, true
}

// RingWALHealth reports a joined ring's group-commit failure accounting
// (see ring.Node.WALHealth); ok=false if not joined.
func (n *Node) RingWALHealth(ringID transport.RingID) (failures uint64, steppedOut bool, lastErr string, ok bool) {
	n.mu.Lock()
	rn := n.rings[ringID]
	n.mu.Unlock()
	if rn == nil {
		return 0, false, "", false
	}
	failures, steppedOut, lastErr = rn.WALHealth()
	return failures, steppedOut, lastErr, true
}

// RingLambdaNow reports a joined ring's rate-leveling target λ (Ring.Lambda,
// or the ring's LambdaOverride); ok=false if not joined.
func (n *Node) RingLambdaNow(ringID transport.RingID) (int, bool) {
	n.mu.Lock()
	rn := n.rings[ringID]
	n.mu.Unlock()
	if rn == nil {
		return 0, false
	}
	return rn.LambdaNow(), true
}

// RingIOGauges returns a joined ring's group-commit instrumentation (WAL
// batch and staged-send batch size distributions), or nils if the process
// has not joined the ring.
func (n *Node) RingIOGauges(ringID transport.RingID) (wal, send *metrics.BatchGauge) {
	n.mu.Lock()
	rn := n.rings[ringID]
	n.mu.Unlock()
	if rn == nil {
		return nil, nil
	}
	return rn.IOGauges()
}

// RingPackGauge returns a joined ring's message-packing instrumentation
// (application messages per proposed instance at this process's
// coordinator), or nil if the process has not joined the ring.
func (n *Node) RingPackGauge(ringID transport.RingID) *metrics.BatchGauge {
	n.mu.Lock()
	rn := n.rings[ringID]
	n.mu.Unlock()
	if rn == nil {
		return nil
	}
	return rn.PackGauge()
}
