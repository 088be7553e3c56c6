package store

import (
	"fmt"
	"time"

	"amcast/internal/smr"
	"amcast/internal/transport"
)

// Local reads (no multicast round). MRP-Store exposes the replica's two
// local-read modes on top of the multicast path:
//
//   - ReadLocal/ScanLocal (read-index): the request carries the client's
//     observed applied vector; the chosen replica waits until its state
//     covers it. Within a client session this gives read-your-writes and
//     monotonic reads — the guarantees YCSB-style read-heavy workloads
//     need — at local-read cost. ScanLocal reads each covering partition
//     at its own batch boundary: per-partition consistent, but not the
//     single totally-ordered snapshot a multicast Scan through the
//     global group provides.
//   - ReadStale (bounded staleness): served immediately by any replica
//     that proved merge progress within the bound; otherwise it fails
//     with ErrStale rather than silently returning old data.
var _ smr.LocalReader = (*SM)(nil)

// ErrStale re-exports the replica's bounded-staleness refusal.
var ErrStale = smr.ErrStale

// AppendLocalRead serves a read-only operation (OpRead or OpScan) against
// the current database, appending the encoded result to dst. Called with
// the replica's apply gate held in read mode, so it observes a
// batch-boundary state.
func (s *SM) AppendLocalRead(dst []byte, _ transport.RingID, raw []byte) ([]byte, bool) {
	v, subs, ok := parseRequest(raw)
	if !ok || (v.Kind != OpRead && v.Kind != OpScan) {
		return dst, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dst, _ = s.apply(dst, v, subs)
	return dst, true
}

// ReadLocal is AppendLocalRead into a buffer of the result's own.
func (s *SM) ReadLocal(group transport.RingID, raw []byte) ([]byte, bool) {
	return s.AppendLocalRead(nil, group, raw)
}

// pickReplica chooses an alive learner of group, rotating across calls
// so concurrent clients spread read load over the partition's replicas.
func (c *Client) pickReplica(group transport.RingID) (transport.ProcessID, bool) {
	return c.svc.AliveLearner(group, uint64(c.rr.Add(1)))
}

// localRead routes one single-key local read to a replica of the owning
// partition, refreshing the schema on StatusWrongPartition like single().
func (c *Client) localRead(op Op, mode smr.LocalReadMode, bound time.Duration) (reply, error) {
	if err := op.check(); err != nil {
		return reply{}, err
	}
	deadline := time.Now().Add(c.Timeout)
	for {
		group := c.Schema().PartitionOf(op.Key)
		target, ok := c.pickReplica(group)
		if !ok {
			return reply{}, fmt.Errorf("store: local read %q: no live replica for group %d", op.Key, group)
		}
		raw, err := c.cl.LocalRead(target, group, op.Request(), mode, bound, c.Timeout)
		if err != nil {
			return reply{}, err
		}
		res, err := parseReply(raw)
		if err != nil || res.Status != StatusWrongPartition {
			return res, err
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("store: local read %q: no owning partition found before deadline", op.Key)
		}
		if !c.refreshSchema() {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// decodeRead maps a read's reply to the (value, found, error) shape.
func decodeRead(res reply, err error) ([]byte, bool, error) {
	if err != nil {
		return nil, false, err
	}
	if res.Status == StatusNotFound {
		return nil, false, nil
	}
	if res.Status != StatusOK || !res.Found {
		return nil, false, fmt.Errorf("store: read failed: %s", res.Status)
	}
	return res.Value, true, nil
}

// ReadLocal returns entry k like Read, but via the read-index path: one
// replica serves it once its applied state covers everything this client
// has observed — no multicast round, session-consistent.
func (c *Client) ReadLocal(k string) ([]byte, bool, error) {
	return decodeRead(c.localRead(Op{Kind: OpRead, Key: k}, smr.ReadIndex, 0))
}

// ReadLocalAt is ReadLocal pinned to one replica instead of rotating.
// Geo deployments use it to read from the nearest replica — the whole
// point of the local-read path is that this replica may be in the
// client's region while the multicast round spans the ring's.
func (c *Client) ReadLocalAt(target transport.ProcessID, k string) ([]byte, bool, error) {
	op := Op{Kind: OpRead, Key: k}
	if err := op.check(); err != nil {
		return nil, false, err
	}
	raw, err := c.cl.LocalRead(target, c.Schema().PartitionOf(k), op.Request(), smr.ReadIndex, 0, c.Timeout)
	if err != nil {
		return nil, false, err
	}
	return decodeRead(parseReply(raw))
}

// ReadStale returns entry k from a replica that proved merge progress
// within bound; ErrStale if the chosen replica cannot.
func (c *Client) ReadStale(k string, bound time.Duration) ([]byte, bool, error) {
	return decodeRead(c.localRead(Op{Kind: OpRead, Key: k}, smr.BoundedStale, bound))
}

// ScanLocal returns all entries within k..k' via read-index local reads,
// one per covering partition. Each partition is read at its own batch
// boundary covering the client's session — unlike Scan through the
// global group, the partitions' states are not from a single point in
// the total order. Retried under a fresh schema if a split commits
// mid-scan, like Scan.
func (c *Client) ScanLocal(k, kHi string) ([]Entry, error) {
	op := Op{Kind: OpScan, Key: k, KeyHi: kHi}
	if err := op.check(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.Timeout)
	for {
		schema := c.Schema()
		var all []Entry
		for _, g := range schema.GroupsForScan(k, kHi) {
			target, ok := c.pickReplica(g)
			if !ok {
				return nil, fmt.Errorf("store: local scan: no live replica for group %d", g)
			}
			raw, err := c.cl.LocalRead(target, g, op.Request(), smr.ReadIndex, 0, c.Timeout)
			if err != nil {
				return nil, err
			}
			res, err := DecodeResult(raw)
			if err != nil {
				return nil, err
			}
			if res.Status != StatusOK {
				return nil, fmt.Errorf("store: local scan failed: %s", res.Status)
			}
			all = append(all, res.Entries...)
		}
		c.maybeRefresh()
		if c.Schema().Version > schema.Version && !time.Now().After(deadline) {
			continue // a split committed mid-scan; re-run under the new schema
		}
		sortEntries(all)
		return all, nil
	}
}
