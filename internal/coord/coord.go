// Package coord is the coordination service the protocols rely on for ring
// configuration, coordinator election and shared metadata — the role
// Zookeeper plays in the paper's implementation (Section 7.1: "Automatic
// ring management and configuration management is handled by Zookeeper").
//
// The service keeps, per ring, an ordered member list with roles and a
// liveness view. The ring overlay follows member order, skipping processes
// marked down; the coordinator is always the first alive acceptor. Every
// mutation bumps the ring's configuration version and notifies watchers,
// which is how processes learn about re-elections and overlay changes.
//
// A small key-value area (PutMeta/GetMeta) stores service metadata such as
// the MRP-Store partitioning schema, mirroring how the paper stores the
// partitioning schema in Zookeeper (Section 7.2).
package coord

import (
	"fmt"
	"sort"
	"sync"

	"amcast/internal/transport"
)

// Role is a bitmask of Ring Paxos roles a process plays in a ring.
type Role uint8

// Process roles within a ring (a process may hold several).
const (
	RoleProposer Role = 1 << iota
	RoleAcceptor
	RoleLearner
)

// Has reports whether r includes all roles in mask.
func (r Role) Has(mask Role) bool { return r&mask == mask }

func (r Role) String() string {
	s := ""
	if r.Has(RoleProposer) {
		s += "P"
	}
	if r.Has(RoleAcceptor) {
		s += "A"
	}
	if r.Has(RoleLearner) {
		s += "L"
	}
	if s == "" {
		return "-"
	}
	return s
}

// Member is one process in a ring, with its roles.
type Member struct {
	ID    transport.ProcessID
	Roles Role
}

// RingConfig is an immutable snapshot of a ring's configuration.
type RingConfig struct {
	Ring    transport.RingID
	Version uint64
	// Members in ring-overlay order (the unidirectional ring follows
	// this order, wrapping around).
	Members []Member
	// Down holds members currently considered crashed.
	Down map[transport.ProcessID]bool
	// Coordinator is the first alive acceptor, or 0 if none.
	Coordinator transport.ProcessID
}

// Alive reports whether id is a member and not marked down.
func (c RingConfig) Alive(id transport.ProcessID) bool {
	if c.Down[id] {
		return false
	}
	for _, m := range c.Members {
		if m.ID == id {
			return true
		}
	}
	return false
}

// Roles returns the roles of a member (0 if not a member).
func (c RingConfig) Roles(id transport.ProcessID) Role {
	for _, m := range c.Members {
		if m.ID == id {
			return m.Roles
		}
	}
	return 0
}

// Successor returns the next alive member after id in ring order. If id is
// not a member, returns the first alive member. ok=false when no other
// alive member exists.
func (c RingConfig) Successor(id transport.ProcessID) (transport.ProcessID, bool) {
	n := len(c.Members)
	if n == 0 {
		return 0, false
	}
	start := -1
	for i, m := range c.Members {
		if m.ID == id {
			start = i
			break
		}
	}
	for off := 1; off <= n; off++ {
		m := c.Members[(start+off+n)%n]
		if m.ID != id && !c.Down[m.ID] {
			return m.ID, true
		}
	}
	return 0, false
}

// Acceptors returns the IDs of all acceptors (alive or not) in ring order.
// Quorums are computed over the full acceptor set, so a majority remains a
// majority across crashes.
func (c RingConfig) Acceptors() []transport.ProcessID {
	var out []transport.ProcessID
	for _, m := range c.Members {
		if m.Roles.Has(RoleAcceptor) {
			out = append(out, m.ID)
		}
	}
	return out
}

// AliveAcceptors returns the alive acceptors in ring order.
func (c RingConfig) AliveAcceptors() []transport.ProcessID {
	var out []transport.ProcessID
	for _, m := range c.Members {
		if m.Roles.Has(RoleAcceptor) && !c.Down[m.ID] {
			out = append(out, m.ID)
		}
	}
	return out
}

// Learners returns all learner IDs in ring order.
func (c RingConfig) Learners() []transport.ProcessID {
	var out []transport.ProcessID
	for _, m := range c.Members {
		if m.Roles.Has(RoleLearner) {
			out = append(out, m.ID)
		}
	}
	return out
}

// Majority returns the quorum size over the full acceptor set. It counts
// in place: every vote asks for it.
func (c RingConfig) Majority() int {
	n := 0
	for _, m := range c.Members {
		if m.Roles.Has(RoleAcceptor) {
			n++
		}
	}
	return n/2 + 1
}

// clone deep-copies the config so watchers can't race with mutations.
func (c RingConfig) clone() RingConfig {
	out := c
	out.Members = append([]Member(nil), c.Members...)
	out.Down = make(map[transport.ProcessID]bool, len(c.Down))
	for id, d := range c.Down {
		out.Down[id] = d
	}
	return out
}

// Service is the in-process coordination registry shared by all processes
// of a deployment. It is safe for concurrent use.
type Service struct {
	mu       sync.RWMutex
	rings    map[transport.RingID]*ringState
	meta     map[string][]byte
	metaSubs map[string][]chan []byte

	// Failure-detector suspicion state (see suspicion.go): per-target set
	// of suspecting observers, and which down-marks the arbitration itself
	// issued (only those may be auto-reverted on recovery — marks placed
	// via MarkDown stay sticky until MarkUp).
	suspicion map[transport.ProcessID]map[transport.ProcessID]bool
	autoDown  map[transport.ProcessID]bool
}

type ringState struct {
	cfg      RingConfig
	watchers []chan RingConfig
}

// NewService returns an empty coordination service.
func NewService() *Service {
	return &Service{
		rings:     make(map[transport.RingID]*ringState),
		meta:      make(map[string][]byte),
		metaSubs:  make(map[string][]chan []byte),
		suspicion: make(map[transport.ProcessID]map[transport.ProcessID]bool),
		autoDown:  make(map[transport.ProcessID]bool),
	}
}

// CreateRing registers a ring with the given ordered members. The first
// alive acceptor becomes coordinator.
func (s *Service) CreateRing(ring transport.RingID, members []Member) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.rings[ring]; exists {
		return fmt.Errorf("coord: ring %d already exists", ring)
	}
	seen := make(map[transport.ProcessID]bool)
	hasAcceptor := false
	for _, m := range members {
		if seen[m.ID] {
			return fmt.Errorf("coord: duplicate member %d in ring %d", m.ID, ring)
		}
		seen[m.ID] = true
		if m.Roles.Has(RoleAcceptor) {
			hasAcceptor = true
		}
	}
	if !hasAcceptor {
		return fmt.Errorf("coord: ring %d needs at least one acceptor", ring)
	}
	cfg := RingConfig{
		Ring:    ring,
		Version: 1,
		Members: append([]Member(nil), members...),
		Down:    make(map[transport.ProcessID]bool),
	}
	cfg.Coordinator = electCoordinator(cfg)
	s.rings[ring] = &ringState{cfg: cfg}
	return nil
}

// electCoordinator picks the first alive acceptor in ring order.
func electCoordinator(cfg RingConfig) transport.ProcessID {
	for _, m := range cfg.Members {
		if m.Roles.Has(RoleAcceptor) && !cfg.Down[m.ID] {
			return m.ID
		}
	}
	return 0
}

// Ring returns the current configuration of a ring.
func (s *Service) Ring(ring transport.RingID) (RingConfig, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.rings[ring]
	if !ok {
		return RingConfig{}, false
	}
	return st.cfg.clone(), true
}

// Coordinator returns a ring's current coordinator (0 while it has none)
// without copying the configuration: the per-command routing question.
func (s *Service) Coordinator(ring transport.RingID) (transport.ProcessID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.rings[ring]
	if !ok {
		return 0, false
	}
	return st.cfg.Coordinator, true
}

// AliveLearner returns the (i mod n)-th of a ring's n alive learners in
// ring order, without copying the configuration; ok=false when the ring is
// unknown or has no alive learner. Callers rotate i to spread load.
func (s *Service) AliveLearner(ring transport.RingID, i uint64) (transport.ProcessID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.rings[ring]
	if !ok {
		return 0, false
	}
	alive := func(m Member) bool { return m.Roles.Has(RoleLearner) && !st.cfg.Down[m.ID] }
	n := uint64(0)
	for _, m := range st.cfg.Members {
		if alive(m) {
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	k := i % n
	for _, m := range st.cfg.Members {
		if alive(m) {
			if k == 0 {
				return m.ID, true
			}
			k--
		}
	}
	return 0, false
}

// Rings returns all ring IDs in ascending order.
func (s *Service) Rings() []transport.RingID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]transport.RingID, 0, len(s.rings))
	for id := range s.rings {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Watch subscribes to configuration changes of a ring. The current config
// is delivered immediately. Call the returned cancel function to stop.
func (s *Service) Watch(ring transport.RingID) (<-chan RingConfig, func()) {
	ch := make(chan RingConfig, 16)
	s.mu.Lock()
	st, ok := s.rings[ring]
	if ok {
		st.watchers = append(st.watchers, ch)
		notify(ch, st.cfg.clone())
	}
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		st, ok := s.rings[ring]
		if !ok {
			return
		}
		for i, w := range st.watchers {
			if w == ch {
				st.watchers = append(st.watchers[:i], st.watchers[i+1:]...)
				break
			}
		}
	}
	return ch, cancel
}

// Watchers reports how many Watch subscriptions a ring holds, so a test
// can tell that a closed component cancelled its own.
func (s *Service) Watchers(ring transport.RingID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st, ok := s.rings[ring]; ok {
		return len(st.watchers)
	}
	return 0
}

// notify delivers v without blocking; if the watcher is saturated the
// oldest pending update is dropped (watchers only need the newest value).
// Dropping the oldest — never the incoming value — is what guarantees a
// watcher always observes the final update of a burst: coalescing is
// allowed, losing the latest value is not.
func notify[T any](ch chan T, v T) {
	for {
		select {
		case ch <- v:
			return
		default:
			select {
			case <-ch: // drop oldest
			default:
			}
		}
	}
}

// MarkDown declares a process crashed. Every ring containing it re-elects
// its coordinator if needed and notifies watchers. A manual mark is sticky:
// the failure detector never reverts it (only MarkUp does), so a node that
// stepped out deliberately — e.g. over a wedged WAL — stays out even while
// its process keeps heartbeating.
func (s *Service) MarkDown(id transport.ProcessID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.autoDown, id)
	s.setLivenessLocked(id, true)
	s.evalSuspicionAllLocked()
}

// MarkUp declares a process recovered and re-joins it to its rings. Stale
// suspicion reports against it are discarded so observers that have not yet
// seen fresh heartbeats cannot immediately re-mark it down.
func (s *Service) MarkUp(id transport.ProcessID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.autoDown, id)
	delete(s.suspicion, id)
	s.setLivenessLocked(id, false)
	s.evalSuspicionAllLocked()
}

func (s *Service) setLivenessLocked(id transport.ProcessID, down bool) {
	for _, st := range s.rings {
		member := false
		for _, m := range st.cfg.Members {
			if m.ID == id {
				member = true
				break
			}
		}
		if !member || st.cfg.Down[id] == down {
			continue
		}
		st.cfg.Down[id] = down
		if !down {
			delete(st.cfg.Down, id)
		}
		st.cfg.Version++
		st.cfg.Coordinator = electCoordinator(st.cfg)
		cfg := st.cfg.clone()
		for _, w := range st.watchers {
			notify(w, cfg)
		}
	}
}

// PutMeta stores a metadata blob under key and notifies meta watchers.
// Saturated watchers coalesce (intermediate values of a burst may be
// dropped) but always receive the newest value: the reconfig flow depends
// on a schema watcher never missing the final published version.
func (s *Service) PutMeta(key string, value []byte) {
	cp := append([]byte(nil), value...)
	s.mu.Lock()
	// Notify under the lock so the delivery order every watcher sees
	// matches the store order: concurrent bursts then always end with the
	// value GetMeta would return. notify never blocks, so holding the
	// lock here cannot deadlock.
	s.meta[key] = cp
	for _, ch := range s.metaSubs[key] {
		notify(ch, cp)
	}
	s.mu.Unlock()
}

// GetMeta returns the metadata stored under key.
func (s *Service) GetMeta(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.meta[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// WatchMeta subscribes to updates of a metadata key. Bursts of updates
// may coalesce on a slow watcher, but the newest value is always
// delivered. Call the returned cancel function to unsubscribe.
func (s *Service) WatchMeta(key string) (<-chan []byte, func()) {
	ch := make(chan []byte, 4)
	s.mu.Lock()
	s.metaSubs[key] = append(s.metaSubs[key], ch)
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		subs := s.metaSubs[key]
		for i, w := range subs {
			if w == ch {
				s.metaSubs[key] = append(subs[:i], subs[i+1:]...)
				break
			}
		}
	}
	return ch, cancel
}
