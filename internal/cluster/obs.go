package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"amcast/internal/core"
	"amcast/internal/obs"
	"amcast/internal/smr"
	"amcast/internal/storage"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// Observability wiring: every process the cluster layer boots registers
// its existing instrumentation (atomic counters, gauge snapshots, stall
// histograms) into the deployment's unified registry under stable dotted
// names with {process, ring} labels. Registration happens once per
// process id; the read functions look the live server up at scrape time,
// so restarts keep the same series instead of duplicating them.

// fsyncer is implemented by durable acceptor logs (storage.FileWAL).
type fsyncer interface{ Fsyncs() uint64 }

// wireClientObs registers a client process's flow-control counters.
func (d *Deployment) wireClientObs(id transport.ProcessID, cl *smr.Client) {
	lbl := map[string]string{"process": fmt.Sprintf("client%d", id)}
	d.Obs.Counter("mrp.client.retransmits_total", lbl, func() float64 {
		return float64(cl.Retransmits())
	})
	d.Obs.Counter("mrp.client.overload_backoffs_total", lbl, func() float64 {
		return float64(cl.OverloadBackoffs())
	})
}

// serverByID returns the live server for a process id (nil if down).
func (c *StoreCluster) serverByID(id transport.ProcessID) *store.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[id]
}

// wireWALObs registers an acceptor log's fsync counter, once per
// (process, ring) series even across restarts.
func (c *StoreCluster) wireWALObs(id transport.ProcessID, ring transport.RingID, lg storage.Log, proc string) {
	fs, ok := lg.(fsyncer)
	if !ok {
		return
	}
	key := logKey{ring, id}
	c.mu.Lock()
	if c.walWired[key] {
		c.mu.Unlock()
		return
	}
	c.walWired[key] = true
	c.mu.Unlock()
	c.D.Obs.Counter("mrp.wal.fsyncs_total", map[string]string{
		"process": proc,
		"ring":    strconv.FormatUint(uint64(ring), 10),
	}, func() float64 { return float64(fs.Fsyncs()) })
}

// wireStoreObs registers one store replica's metric catalog. Idempotent
// per process id (restarts re-use the registered series).
func (c *StoreCluster) wireStoreObs(p, r int) {
	id := ReplicaID(p, r)
	c.mu.Lock()
	if c.obsWired[id] {
		c.mu.Unlock()
		return
	}
	c.obsWired[id] = true
	c.mu.Unlock()

	proc := fmt.Sprintf("p%dr%d", p, r)
	rep := func() *smr.Replica {
		if s := c.serverByID(id); s != nil {
			return s.Replica()
		}
		return nil
	}
	groups := []transport.RingID{c.ringOf(p)}
	if c.opts.Global {
		groups = append(groups, GlobalRing)
	}
	registerProcessMetrics(c.D.Obs, proc, rep, groups)
}

// registerProcessMetrics registers the shared replica/node catalog for
// one process. rep returns the live replica at scrape time (nil while
// the process is down — series read 0 rather than disappearing).
func registerProcessMetrics(reg *obs.Registry, proc string, rep func() *smr.Replica, groups []transport.RingID) {
	node := func() *core.Node {
		if rp := rep(); rp != nil {
			return rp.CoreNode()
		}
		return nil
	}
	lbl := map[string]string{"process": proc}
	repMetric := func(name string, kind obs.Kind, read func(*smr.Replica) float64) {
		f := func() float64 {
			if rp := rep(); rp != nil {
				return read(rp)
			}
			return 0
		}
		if kind == obs.KindCounter {
			reg.Counter(name, lbl, f)
		} else {
			reg.Gauge(name, lbl, f)
		}
	}
	repMetric("mrp.replica.executed_total", obs.KindCounter, func(rp *smr.Replica) float64 { return float64(rp.ExecutedCount()) })
	repMetric("mrp.replica.checkpoints_total", obs.KindCounter, func(rp *smr.Replica) float64 { return float64(rp.CheckpointCount()) })
	repMetric("mrp.replica.local_reads_total", obs.KindCounter, func(rp *smr.Replica) float64 { return float64(rp.LocalReads()) })
	repMetric("mrp.replica.epoch", obs.KindGauge, func(rp *smr.Replica) float64 { return float64(rp.Epoch()) })
	repMetric("mrp.replica.read_wait_p99_seconds", obs.KindGauge, func(rp *smr.Replica) float64 {
		return rp.ReadWait().Quantile(0.99).Seconds()
	})
	repMetric("mrp.core.delivered_total", obs.KindCounter, func(rp *smr.Replica) float64 {
		return float64(rp.CoreNode().DeliveredCount())
	})

	for _, g := range groups {
		g := g
		rl := map[string]string{"process": proc, "ring": strconv.FormatUint(uint64(g), 10)}
		nodeMetric := func(name string, kind obs.Kind, read func(*core.Node) float64) {
			f := func() float64 {
				if n := node(); n != nil {
					return read(n)
				}
				return 0
			}
			if kind == obs.KindCounter {
				reg.Counter(name, rl, f)
			} else {
				reg.Gauge(name, rl, f)
			}
		}
		nodeMetric("mrp.ring.decided_total", obs.KindCounter, func(n *core.Node) float64 {
			decided, _, _ := n.RingStats(g)
			return float64(decided)
		})
		nodeMetric("mrp.ring.skipped_total", obs.KindCounter, func(n *core.Node) float64 {
			_, skipped, _ := n.RingStats(g)
			return float64(skipped)
		})
		nodeMetric("mrp.ring.skip_requests_sent_total", obs.KindCounter, func(n *core.Node) float64 {
			fs, _ := n.RingFlowStats(g)
			return float64(fs.SkipRequestsSent)
		})
		nodeMetric("mrp.ring.skips_on_demand_total", obs.KindCounter, func(n *core.Node) float64 {
			fs, _ := n.RingFlowStats(g)
			return float64(fs.SkipsOnDemand)
		})
		nodeMetric("mrp.ring.lambda", obs.KindGauge, func(n *core.Node) float64 {
			l, _ := n.RingLambdaNow(g)
			return float64(l)
		})
		nodeMetric("mrp.ring.wal_failures_total", obs.KindCounter, func(n *core.Node) float64 {
			failures, _, _, _ := n.RingWALHealth(g)
			return float64(failures)
		})
		nodeMetric("mrp.ring.applied", obs.KindGauge, func(n *core.Node) float64 {
			return float64(n.DeliveredVector()[g])
		})
		nodeMetric("mrp.flow.lag", obs.KindGauge, func(n *core.Node) float64 {
			fs, _ := n.RingFlowStats(g)
			return float64(fs.Lag)
		})
		nodeMetric("mrp.flow.overruns_total", obs.KindCounter, func(n *core.Node) float64 {
			fs, _ := n.RingFlowStats(g)
			return float64(fs.Overruns)
		})
		nodeMetric("mrp.flow.shed_proposals_total", obs.KindCounter, func(n *core.Node) float64 {
			fs, _ := n.RingFlowStats(g)
			return float64(fs.ShedProposals)
		})
		nodeMetric("mrp.merge.stall_seconds_total", obs.KindCounter, func(n *core.Node) float64 {
			return stallFor(n, g).Total.Seconds()
		})
		nodeMetric("mrp.merge.stall_max_seconds", obs.KindGauge, func(n *core.Node) float64 {
			return stallFor(n, g).Max.Seconds()
		})
		nodeMetric("mrp.wal.batch_items_mean", obs.KindGauge, func(n *core.Node) float64 {
			wal, _ := n.RingIOGauges(g)
			if wal == nil {
				return 0
			}
			return wal.Mean()
		})
		nodeMetric("mrp.ring.packed_values_mean", obs.KindGauge, func(n *core.Node) float64 {
			return packedMean(n, g)
		})
		nodeMetric("mrp.send.batch_items_mean", obs.KindGauge, func(n *core.Node) float64 {
			_, send := n.RingIOGauges(g)
			if send == nil {
				return 0
			}
			return send.Mean()
		})
	}
}

// stallFor returns the merge-stall summary of one subscribed ring.
func stallFor(n *core.Node, g transport.RingID) core.RingStall {
	for _, s := range n.MergeStalls() {
		if s.Ring == g {
			return s
		}
	}
	return core.RingStall{}
}

// packedMean is the mean number of application messages this process's
// coordinator packed per proposed instance of ring g (0 where it never
// coordinated).
func packedMean(n *core.Node, g transport.RingID) float64 {
	if pack := n.RingPackGauge(g); pack != nil {
		return pack.Mean()
	}
	return 0
}

// ringView is one subscribed ring's entry in /debug/rings: decided and
// skipped instances, the delivered mark and the frontier behind it, flow
// control (with the coordinator's queue depth), messages packed per
// instance, and the answer to "which ring is the merge waiting on and by
// how much": waiting — another ring holds a value the merge cannot deliver
// before this one has decided through awaited_instance, which it asked the
// coordinator to skip to — next to the skip-on-stall counters of both ends.
func ringView(n *core.Node, g transport.RingID) map[string]any {
	decided, skipped, _ := n.RingStats(g)
	fs, _ := n.RingFlowStats(g)
	applied := n.DeliveredVector()[g]
	return map[string]any{
		"ring":               uint64(g),
		"decided":            decided,
		"skipped":            skipped,
		"applied":            applied,
		"frontier":           applied + 1,
		"flow":               fs,
		"queue_depth":        fs.QueueDepth,
		"packed_mean":        packedMean(n, g),
		"waiting":            fs.SkipAwaited > applied,
		"awaited_instance":   fs.SkipAwaited,
		"skip_requests_sent": fs.SkipRequestsSent,
		"skips_on_demand":    fs.SkipsOnDemand,
	}
}

// DebugRings snapshots per-process protocol state for /debug/rings: the
// subscription and, per ring, ringView plus λ and merge-stall telemetry.
func (c *StoreCluster) DebugRings() any {
	c.mu.Lock()
	ids := make([]transport.ProcessID, 0, len(c.servers))
	for id := range c.servers {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		srv := c.serverByID(id)
		if srv == nil {
			continue
		}
		n := srv.Replica().CoreNode()
		rings := make([]map[string]any, 0, 2)
		for _, g := range n.Subscription() {
			view, st := ringView(n, g), stallFor(n, g)
			view["lambda"], _ = n.RingLambdaNow(g)
			view["stall_total_ns"] = int64(st.Total)
			view["stall_max_ns"] = int64(st.Max)
			view["stall_p99_ns"] = int64(st.P99)
			view["stall_count"] = st.Count
			rings = append(rings, view)
		}
		since := time.Duration(0)
		if d, ok := n.SinceProgress(); ok {
			since = d
		}
		out = append(out, map[string]any{
			"process":           fmt.Sprintf("p%d", id),
			"delivered_total":   n.DeliveredCount(),
			"since_progress_ns": int64(since),
			"executed":          srv.Replica().ExecutedCount(),
			"epoch":             srv.Replica().Epoch(),
			"rings":             rings,
		})
	}
	return map[string]any{"servers": out}
}

// ObsMux builds the cluster's observability endpoints: the deployment's
// /metrics and trace views plus this cluster's /debug/rings.
func (c *StoreCluster) ObsMux() *http.ServeMux {
	return obs.NewMux(c.D.Obs, c.D.Trace, map[string]obs.DebugProvider{
		"rings": c.DebugRings,
	})
}

// wireDLogObs registers one dLog server's metric catalog.
func (c *DLogCluster) wireDLogObs(s int, groups []transport.RingID) {
	id := DLogServerID(s)
	rep := func() *smr.Replica {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reps[id]
	}
	registerProcessMetrics(c.D.Obs, fmt.Sprintf("dlog%d", s), rep, groups)
}

// DebugRings snapshots per-server protocol state for /debug/rings (see
// ringView).
func (c *DLogCluster) DebugRings() any {
	c.mu.Lock()
	ids := make([]transport.ProcessID, 0, len(c.reps))
	for id := range c.reps {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		c.mu.Lock()
		rp := c.reps[id]
		c.mu.Unlock()
		if rp == nil {
			continue
		}
		n := rp.CoreNode()
		rings := make([]map[string]any, 0, 2)
		for _, g := range n.Subscription() {
			rings = append(rings, ringView(n, g))
		}
		out = append(out, map[string]any{
			"process":         fmt.Sprintf("p%d", id),
			"delivered_total": n.DeliveredCount(),
			"executed":        rp.ExecutedCount(),
			"rings":           rings,
		})
	}
	return map[string]any{"servers": out}
}

// ObsMux builds the dLog cluster's observability endpoints.
func (c *DLogCluster) ObsMux() *http.ServeMux {
	return obs.NewMux(c.D.Obs, c.D.Trace, map[string]obs.DebugProvider{
		"rings": c.DebugRings,
	})
}
