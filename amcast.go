// Package amcast is a Go library for atomic multicast, implementing
// Multi-Ring Paxos (Benz et al., "Building global and scalable systems
// with Atomic Multicast", Middleware 2014).
//
// Atomic multicast generalizes atomic broadcast: processes multicast
// messages to groups, subscribers deliver messages from the groups they
// choose, and delivery order is acyclic across the whole system — any two
// processes delivering the same two messages deliver them in the same
// order. This is the ordering primitive the paper argues scalable,
// strongly consistent services should be built on: state is partitioned,
// each partition maps to a group, and cross-partition requests are ordered
// by multicasting to a group all partitions subscribe to.
//
// # Quick start
//
//	sys := amcast.NewSystem()
//	defer sys.Close()
//
//	members := []amcast.Member{
//		{ID: 1, Proposer: true, Acceptor: true, Learner: true},
//		{ID: 2, Proposer: true, Acceptor: true, Learner: true},
//		{ID: 3, Proposer: true, Acceptor: true, Learner: true},
//	}
//	sys.CreateGroup(1, members)
//
//	node, _ := sys.NewNode(1, amcast.Defaults())
//	node.Join(1)
//	node.Subscribe(func(d amcast.Delivery) {
//		fmt.Printf("delivered %q from group %d\n", d.Data, d.Group)
//	}, 1)
//	node.Multicast(1, []byte("hello"))
//
// The richer building blocks — the replicated key-value store (MRP-Store),
// the distributed log (dLog), state-machine replication, recovery, and the
// benchmark harness reproducing the paper's figures — live under
// internal/; see README.md and the examples/ directory.
package amcast

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// ProcessID identifies a process.
type ProcessID uint32

// GroupID identifies a multicast group (one Ring Paxos ring each).
type GroupID uint32

// Delivery is one message delivered by atomic multicast.
type Delivery struct {
	// Group the message was multicast to.
	Group GroupID
	// Instance is the consensus instance that decided it.
	Instance uint64
	// Data is the message payload.
	Data []byte
}

// Member declares one process's roles in a group.
type Member struct {
	ID ProcessID
	// Proposer processes may multicast to the group.
	Proposer bool
	// Acceptor processes form the group's fault-tolerance quorum.
	Acceptor bool
	// Learner processes may subscribe to the group.
	Learner bool
}

// Options tunes a node's protocol parameters.
type Options struct {
	// M is the deterministic merge quota (consensus instances delivered
	// per group per round-robin turn). The paper uses 1.
	M int
	// SkipInterval is the rate-leveling interval Δ (paper: 5 ms within
	// a datacenter, 20 ms across).
	SkipInterval time.Duration
	// MaxRate is the rate-leveling maximum expected rate λ in messages
	// per second (paper: 9000 within a datacenter, 2000 across).
	MaxRate int
	// BatchBytes packs proposals into consensus instances up to this
	// size (0 disables packing).
	BatchBytes int
	// RetryInterval drives re-proposals and gap chasing.
	RetryInterval time.Duration
	// Durable stores acceptor votes in a file-backed write-ahead log
	// under DataDir instead of memory.
	Durable bool
	// DataDir is the durable log directory (required when Durable).
	DataDir string
}

// Defaults returns the paper's datacenter configuration.
func Defaults() Options {
	return Options{
		M:            1,
		SkipInterval: 5 * time.Millisecond,
		MaxRate:      9000,
		BatchBytes:   32 << 10,
	}
}

// WANDefaults returns the paper's cross-datacenter configuration.
func WANDefaults() Options {
	return Options{
		M:            1,
		SkipInterval: 20 * time.Millisecond,
		MaxRate:      2000,
		BatchBytes:   32 << 10,
	}
}

// System is an in-process atomic multicast fabric: an emulated network
// plus the coordination service holding group configurations. Multiple
// nodes attach to one System, each with its own ProcessID.
type System struct {
	net *transport.Network
	svc *coord.Service

	mu    sync.Mutex
	sites map[ProcessID]netem.Site
}

// NewSystem creates a fabric with zero network delay (a single host or
// switch-local cluster).
func NewSystem() *System {
	return &System{
		net:   transport.NewNetwork(nil),
		svc:   coord.NewService(),
		sites: make(map[ProcessID]netem.Site),
	}
}

// NewGeoSystem creates a fabric emulating the paper's four Amazon EC2
// regions; scale in (0, 1] shrinks the real 2014-era round-trip times.
// Place nodes with PlaceNode before creating them.
func NewGeoSystem(scale float64) *System {
	topo := netem.EC2Topology()
	topo.SetScale(scale)
	return &System{
		net:   transport.NewNetwork(topo),
		svc:   coord.NewService(),
		sites: make(map[ProcessID]netem.Site),
	}
}

// Regions lists the geo sites of NewGeoSystem in deployment order.
func Regions() []string {
	out := make([]string, len(netem.EC2Regions))
	for i, r := range netem.EC2Regions {
		out[i] = string(r)
	}
	return out
}

// PlaceNode assigns a process to a region (geo systems; default local).
func (s *System) PlaceNode(id ProcessID, region string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sites[id] = netem.Site(region)
}

// CreateGroup registers a multicast group with its member roles. Member
// order defines the ring overlay; the first alive acceptor coordinates.
func (s *System) CreateGroup(g GroupID, members []Member) error {
	ms := make([]coord.Member, 0, len(members))
	for _, m := range members {
		var roles coord.Role
		if m.Proposer {
			roles |= coord.RoleProposer
		}
		if m.Acceptor {
			roles |= coord.RoleAcceptor
		}
		if m.Learner {
			roles |= coord.RoleLearner
		}
		if roles == 0 {
			return fmt.Errorf("amcast: member %d has no roles", m.ID)
		}
		ms = append(ms, coord.Member{ID: transport.ProcessID(m.ID), Roles: roles})
	}
	return s.svc.CreateRing(transport.RingID(g), ms)
}

// Crash makes a process fail: its messages are dropped and the group
// coordinator is re-elected if needed. Use NewNode with the same id to
// model recovery.
func (s *System) Crash(id ProcessID) {
	s.net.Detach(transport.ProcessID(id))
	s.svc.MarkDown(transport.ProcessID(id))
}

// Recover marks a previously crashed process alive again (create a fresh
// Node for it to resume participation).
func (s *System) Recover(id ProcessID) {
	s.svc.MarkUp(transport.ProcessID(id))
}

// Close shuts the fabric down.
func (s *System) Close() { s.net.Close() }

// Node is one process's atomic multicast endpoint.
type Node struct {
	id   ProcessID
	core *core.Node
}

// NewNode attaches a process to the system.
func (s *System) NewNode(id ProcessID, opts Options) (*Node, error) {
	s.mu.Lock()
	site, ok := s.sites[id]
	s.mu.Unlock()
	if !ok {
		site = netem.SiteLocal
	}
	tr := s.net.Attach(transport.ProcessID(id), site)
	router := transport.NewRouter(tr)
	cfg := core.Config{
		Self:   transport.ProcessID(id),
		Router: router,
		Coord:  s.svc,
		M:      opts.M,
		Ring: core.RingOptions{
			RetryInterval: opts.RetryInterval,
			SkipEnabled:   opts.SkipInterval > 0,
			Delta:         opts.SkipInterval,
			Lambda:        opts.MaxRate,
			BatchBytes:    opts.BatchBytes,
		},
	}
	if opts.Durable {
		if opts.DataDir == "" {
			return nil, errors.New("amcast: Durable requires DataDir")
		}
		dir := opts.DataDir
		cfg.NewLog = func(ring transport.RingID) (storage.Log, error) {
			wal, err := storage.OpenWAL(fmt.Sprintf("%s/ring-%d", dir, ring), storage.WALOptions{
				Mode: storage.SyncPeriodic,
			})
			if err != nil {
				// Durability was requested; failing the join beats
				// silently falling back to volatile storage.
				return nil, fmt.Errorf("amcast: open WAL for ring %d: %w", ring, err)
			}
			return wal, nil
		}
	}
	n, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Node{id: id, core: n}, nil
}

// ID returns the node's process id.
func (n *Node) ID() ProcessID { return n.id }

// Join makes the node participate in a group with its registered roles.
func (n *Node) Join(g GroupID) error {
	return n.core.Join(transport.RingID(g))
}

// Subscribe starts delivery from the given groups: handler runs for every
// message, in the deterministic merge order shared by every subscriber of
// the same group set. Call once, after joining all groups with the learner
// role. It is a thin per-message adapter over SubscribeBatch; throughput-
// sensitive subscribers should use SubscribeBatch directly. Data is valid
// only during the call, as with SubscribeBatch.
func (n *Node) Subscribe(handler func(Delivery), groups ...GroupID) error {
	if handler == nil {
		return errors.New("amcast: nil handler")
	}
	return n.SubscribeBatch(func(ds []Delivery) {
		for _, d := range ds {
			handler(d)
		}
	}, groups...)
}

// SubscribeBatch starts delivery from the given groups, invoking handler
// with batches of consecutive messages in the deterministic merge order.
// Batches hold at most 512 messages and 1 MB of payload and end
// whenever the merge would otherwise wait for the network, so batching
// adds no delivery latency. The slice is reused between calls — handlers
// must not retain it — and each Data may sit in a pooled buffer that
// recycles once the handler returns: copy what you keep. Call once, after
// joining all groups with the learner role.
func (n *Node) SubscribeBatch(handler func([]Delivery), groups ...GroupID) error {
	if handler == nil {
		return errors.New("amcast: nil handler")
	}
	gs := make([]transport.RingID, len(groups))
	for i, g := range groups {
		gs[i] = transport.RingID(g)
	}
	var buf []Delivery
	return n.core.SubscribeBatch(func(ds []core.Delivery) {
		if cap(buf) < len(ds) {
			buf = make([]Delivery, 0, cap(ds))
		}
		buf = buf[:0]
		for _, d := range ds {
			buf = append(buf, Delivery{
				Group:    GroupID(d.Group),
				Instance: d.Instance,
				Data:     d.Data,
			})
		}
		handler(buf)
		for i := range buf {
			buf[i] = Delivery{} // release payload references
		}
	}, gs...)
}

// Multicast sends data to a group. The call is asynchronous and
// best-effort: delivery is guaranteed only through the protocol's
// agreement once the message is decided, and applications retry
// end-to-end (see internal/smr for a request/response layer that does).
func (n *Node) Multicast(g GroupID, data []byte) error {
	return n.core.Multicast(transport.RingID(g), data)
}

// DeliveredCount reports messages delivered so far.
func (n *Node) DeliveredCount() uint64 { return n.core.DeliveredCount() }

// DeliveredVector reports per-group delivered consensus instances (the
// checkpoint tuple of the paper's Section 5.2).
func (n *Node) DeliveredVector() map[GroupID]uint64 {
	out := make(map[GroupID]uint64)
	for g, v := range n.core.DeliveredVector() {
		out[GroupID(g)] = v
	}
	return out
}

// Stop shuts the node down.
func (n *Node) Stop() { n.core.Stop() }
