package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/coord"
	"amcast/internal/smr"
	"amcast/internal/transport"
)

// Client is the MRP-Store client API (Table 1). It is safe for concurrent
// use; each call blocks until the required responses arrive.
//
// The client caches the partitioning schema and refreshes it online: when
// a replica answers StatusWrongPartition (the key moved in a split after
// this client loaded its schema), the client reloads the schema from the
// coordination service and retries against the new owner, so live
// reconfiguration is transparent to callers.
//
// Besides the multicast path, the client exposes the replica's two
// local-read modes (no multicast round):
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
//     with smr.ErrStale rather than silently returning old data.
type Client struct {
	svc *coord.Service
	cl  *smr.Client
	// Timeout per operation (also bounds wrong-partition retries).
	Timeout time.Duration

	// watch carries schema-change notifications from the coordination
	// service; Schema drains it opportunistically so clients pick up
	// committed splits without waiting to hit a WrongPartition.
	watch   <-chan []byte
	unwatch func()

	// rr rotates local reads across a partition's replicas.
	rr atomic.Uint32

	mu     sync.RWMutex
	schema Schema
}

// NewClient builds a store client over an smr client and the published
// schema.
func NewClient(svc *coord.Service, cl *smr.Client) (*Client, error) {
	schema, err := LoadSchema(svc)
	if err != nil {
		return nil, err
	}
	watch, unwatch := svc.WatchMeta(SchemaMetaKey)
	return &Client{svc: svc, schema: schema, cl: cl, Timeout: 10 * time.Second, watch: watch, unwatch: unwatch}, nil
}

// Close unsubscribes the client's schema watcher. Optional; a client is
// otherwise stateless.
func (c *Client) Close() {
	if c.unwatch != nil {
		c.unwatch()
	}
}

// Schema returns the partitioning schema in use, first applying any
// pending schema-change notification (newer versions only — the cache
// never moves backwards).
func (c *Client) Schema() Schema {
	c.maybeRefresh()
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.schema
}

// maybeRefresh drains pending schema-change notifications and reloads
// the schema only when one arrived; it reports whether the cached
// version advanced. The steady state (no reconfiguration) costs one
// non-blocking channel poll.
func (c *Client) maybeRefresh() bool {
	signaled := false
	for {
		select {
		case <-c.watch:
			signaled = true
			continue
		default:
		}
		break
	}
	if !signaled {
		return false
	}
	return c.refreshSchema()
}

// refreshSchema reloads the schema from the coordination service,
// keeping the cache monotonic (a concurrent refresh may already have
// installed a newer version). It reports whether the cached version
// advanced.
func (c *Client) refreshSchema() bool {
	schema, err := LoadSchema(c.svc)
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if schema.Version <= c.schema.Version {
		return false
	}
	c.schema = schema
	return true
}

// ErrKeyTooLong and ErrBatchTooLarge reject what the operation encoding's
// two-byte length prefixes cannot express, before anything is sent: encoded
// regardless, the prefix would wrap and a replica would read a different,
// shorter key or batch out of the same bytes.
var (
	ErrKeyTooLong    = errors.New("store: key longer than 65535 bytes")
	ErrBatchTooLarge = errors.New("store: batch of more than 65535 operations")
)

// check reports whether o fits the encoding.
func (o Op) check() error {
	switch {
	case len(o.Key) > maxKeyLen || len(o.KeyHi) > maxKeyLen:
		return fmt.Errorf("store: %s: %w", o.Kind, ErrKeyTooLong)
	case len(o.Batch) > maxBatchLen:
		return ErrBatchTooLarge
	}
	for i := range o.Batch {
		if err := o.Batch[i].check(); err != nil {
			return err
		}
	}
	return nil
}

// Read returns the value of entry k, if existent. The value is the
// caller's: a view of the client's one copy of the response.
func (c *Client) Read(k string) ([]byte, bool, error) {
	return decodeRead(c.single(Op{Kind: OpRead, Key: k}, 0, 0))
}

// ReadLocal returns entry k like Read, but via the read-index path: one
// replica serves it once its applied state covers everything this client
// has observed — no multicast round, session-consistent.
func (c *Client) ReadLocal(k string) ([]byte, bool, error) {
	return decodeRead(c.single(Op{Kind: OpRead, Key: k}, smr.ReadIndex, 0))
}

// ReadStale returns entry k from a replica that proved merge progress
// within bound; smr.ErrStale if the chosen replica cannot.
func (c *Client) ReadStale(k string, bound time.Duration) ([]byte, bool, error) {
	return decodeRead(c.single(Op{Kind: OpRead, Key: k}, smr.BoundedStale, bound))
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

// Insert adds tuple (k, v) to the database.
func (c *Client) Insert(k string, v []byte) error {
	return c.write(Op{Kind: OpInsert, Key: k, Value: v})
}

// Update replaces entry k with value v, if existent.
func (c *Client) Update(k string, v []byte) error {
	return c.write(Op{Kind: OpUpdate, Key: k, Value: v})
}

// Delete removes entry k from the database.
func (c *Client) Delete(k string) error {
	return c.write(Op{Kind: OpDelete, Key: k})
}

// write runs a single-key operation that answers with a bare status.
func (c *Client) write(op Op) error {
	res, err := c.single(op, 0, 0)
	if err != nil {
		return err
	}
	if res.Status != StatusOK {
		return fmt.Errorf("store: %s %q: %s", op.Kind, op.Key, res.Status)
	}
	return nil
}

// pickReplica chooses an alive learner of group, rotating across calls
// so concurrent clients spread read load over the partition's replicas.
func (c *Client) pickReplica(group transport.RingID) (transport.ProcessID, bool) {
	return c.svc.AliveLearner(group, uint64(c.rr.Add(1)))
}

// single routes a single-key operation to the owning partition: through
// the partition's ring when mode is 0, else as a local read of that mode
// (and staleness bound) at one of its replicas. On StatusWrongPartition —
// the partition shrank in a split after this client loaded its schema — it
// refreshes the schema and retries against the new owner until the
// deadline; during the short window between a split marker and the schema
// flip it polls for the new version.
func (c *Client) single(op Op, mode smr.LocalReadMode, bound time.Duration) (reply, error) {
	if err := op.check(); err != nil {
		return reply{}, err
	}
	deadline := time.Now().Add(c.Timeout)
	for {
		group := c.Schema().PartitionOf(op.Key)
		var resp []byte
		var err error
		if mode == 0 {
			resp, err = c.cl.SubmitOne(group, op.Request(), c.Timeout)
		} else if target, ok := c.pickReplica(group); !ok {
			return reply{}, fmt.Errorf("store: local read %q: no live replica for group %d", op.Key, group)
		} else {
			resp, err = c.cl.LocalRead(target, group, op.Request(), mode, bound, c.Timeout)
		}
		if err != nil {
			return reply{}, err
		}
		res, err := parseReply(resp)
		if err != nil || res.Status != StatusWrongPartition {
			return res, err
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("store: %s %q: no owning partition found before deadline: %s", op.Kind, op.Key, res.Status)
		}
		if !c.refreshSchema() {
			// The split marker executed but the new schema is not
			// published yet; wait out the flip.
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// Scan returns all entries within range k..k'. It is multicast to the
// global group when one exists (totally ordered with everything) or to
// every covering partition group otherwise. If the schema version
// advances while the scan is in flight (a split committed), the scan is
// retried under the new schema: partitions clip scans to their owned
// range, so a scan fanned out under a stale schema could miss the keys
// that moved.
//
// Known window: between a split marker executing and the new schema
// publishing (the transfer/boot phase of Controller.Split, typically
// well under a second), a scan crossing the split key observes only the
// shrunken old partition — the moved keys are reported by neither side
// yet. Single-key operations fail loudly (StatusWrongPartition) in the
// same window; scans cannot distinguish "clipped because another
// partition serves the rest" from "clipped because a split is in
// flight" until the new schema exists to retry against.
func (c *Client) Scan(k, kHi string) ([]Entry, error) {
	return c.scan(k, kHi, false)
}

// ScanLocal returns all entries within k..k' via read-index local reads,
// one per covering partition. Each partition is read at its own batch
// boundary covering the client's session — unlike Scan through the
// global group, the partitions' states are not from a single point in
// the total order. Retried under a fresh schema if a split commits
// mid-scan, like Scan.
func (c *Client) ScanLocal(k, kHi string) ([]Entry, error) {
	return c.scan(k, kHi, true)
}

// scan fans a scan out under the cached schema — multicast, or one
// read-index local read per covering partition — and merges the replies,
// re-running it while a split commits mid-scan.
func (c *Client) scan(k, kHi string, local bool) ([]Entry, error) {
	op := Op{Kind: OpScan, Key: k, KeyHi: kHi}
	if err := op.check(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.Timeout)
	var buf [4][]byte // room for the replies of up to four partitions
	for {
		schema := c.Schema()
		targets := schema.GroupsForScan(k, kHi)
		var resps [][]byte
		var err error
		if local {
			resps, err = c.localReplies(buf[:0], targets, op)
		} else {
			groups := targets
			if schema.GlobalGroup != 0 {
				groups = []transport.RingID{schema.GlobalGroup}
			}
			resps, err = c.cl.Submit(buf[:0], groups, op.Request(), targets, len(targets), c.Timeout)
		}
		if err != nil {
			return nil, err
		}
		var all []Entry
		for _, raw := range resps {
			res, err := DecodeResult(raw)
			if err != nil {
				return nil, err
			}
			if res.Status != StatusOK {
				return nil, fmt.Errorf("store: scan failed: %s", res.Status)
			}
			all = append(all, res.Entries...)
		}
		// Retry when the schema advanced past the version this fan-out
		// used — comparing versions (not maybeRefresh's advanced-the-
		// cache signal) so a concurrent caller's refresh doesn't mask
		// the change from us.
		c.maybeRefresh()
		if c.Schema().Version > schema.Version && !time.Now().After(deadline) {
			continue // a split committed mid-scan; re-run under the new schema
		}
		sortEntries(all)
		return all, nil
	}
}

// localReplies reads op at one replica of each group, read-index, and
// appends the replies to dst.
func (c *Client) localReplies(dst [][]byte, groups []transport.RingID, op Op) ([][]byte, error) {
	for _, g := range groups {
		target, ok := c.pickReplica(g)
		if !ok {
			return nil, fmt.Errorf("store: local scan: no live replica for group %d", g)
		}
		raw, err := c.cl.LocalRead(target, g, op.Request(), smr.ReadIndex, 0, c.Timeout)
		if err != nil {
			return nil, err
		}
		dst = append(dst, raw)
	}
	return dst, nil
}

// Batch applies several single-partition operations grouped per partition
// (client-side batching, Section 7.2). All ops in one call must belong to
// the same partition; the helper BatchByPartition groups them.
func (c *Client) Batch(group transport.RingID, ops []Op) ([]Result, error) {
	op := Op{Kind: OpBatch, Batch: ops}
	if err := op.check(); err != nil {
		return nil, err
	}
	resp, err := c.cl.SubmitOne(group, op.Request(), c.Timeout)
	if err != nil {
		return nil, err
	}
	res, err := DecodeResult(resp)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// BatchByPartition groups operations by owning partition.
func (c *Client) BatchByPartition(ops []Op) map[transport.RingID][]Op {
	schema := c.Schema()
	out := make(map[transport.RingID][]Op)
	for _, op := range ops {
		g := schema.PartitionOf(op.Key)
		out[g] = append(out[g], op)
	}
	return out
}

func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
}
