package baseline

import (
	"sync"
	"time"

	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// SingleNodeConfig configures the MySQL-like comparator.
type SingleNodeConfig struct {
	// Net is the shared emulated network.
	Net *transport.Network
	// ServiceTime is per-operation server cost (single service queue).
	ServiceTime time.Duration
	// WAL, if non-nil, receives every write (wrap a SimDisk for device
	// timing; MySQL with an async-flushed redo log by default).
	WAL storage.Log
	// ID is the server's process id.
	ID transport.ProcessID
}

// SingleNode models MySQL in the paper's Figure 4: one strongly consistent
// server, no replication, every operation through one service queue.
type SingleNode struct {
	cfg   SingleNodeConfig
	tr    transport.Transport
	clock serviceClock

	mu     sync.Mutex
	db     *store.SM
	walSeq uint64

	done     chan struct{}
	loopDone chan struct{}
}

// StartSingleNode boots the server.
func StartSingleNode(cfg SingleNodeConfig) (*SingleNode, error) {
	if cfg.ServiceTime == 0 {
		cfg.ServiceTime = 25 * time.Microsecond
	}
	if cfg.ID == 0 {
		cfg.ID = 31000
	}
	s := &SingleNode{
		cfg:      cfg,
		db:       store.NewSM(),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	tr, router := attach(cfg.Net, cfg.ID, netem.SiteLocal)
	s.tr = tr
	go s.loop(router.Service())
	return s, nil
}

// ID returns the server's process id.
func (s *SingleNode) ID() transport.ProcessID { return s.cfg.ID }

// Stop halts the server.
func (s *SingleNode) Stop() {
	close(s.done)
	<-s.loopDone
	_ = s.tr.Close()
}

func (s *SingleNode) loop(service *transport.Inbox) {
	defer close(s.loopDone)
	serve(service, s.done, s.handle)
}

func (s *SingleNode) handle(m transport.Message) {
	if m.Kind != transport.KindCommand {
		return
	}
	op, err := store.DecodeOp(m.Payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	raw := s.db.Execute(0, m.Payload)
	if s.cfg.WAL != nil {
		switch op.Kind {
		case store.OpUpdate, store.OpInsert, store.OpDelete:
			s.walSeq++
			_ = s.cfg.WAL.Put(s.walSeq, m.Payload)
		}
	}
	s.mu.Unlock()
	// One service queue models the single server's capacity; replies are
	// deferred so the accept loop keeps draining.
	wait := s.clock.occupy(s.cfg.ServiceTime)
	from, seq := m.From, m.Seq
	go func() {
		if wait > 0 {
			time.Sleep(wait)
		}
		_ = s.tr.Send(from, transport.Message{
			Kind: transport.KindResponse, Seq: seq, Payload: raw,
		})
	}()
}

// SingleNodeClient is a client of the MySQL model.
type SingleNodeClient struct {
	s   *SingleNode
	rpc *rpcClient
	// Timeout per operation.
	Timeout time.Duration
}

// NewClient attaches a client process.
func (s *SingleNode) NewClient(id transport.ProcessID) *SingleNodeClient {
	tr, router := attach(s.cfg.Net, id, netem.SiteLocal)
	return &SingleNodeClient{s: s, rpc: newRPCClient(tr, router.Service()), Timeout: 10 * time.Second}
}

// Do executes one operation (scans included: single node holds all data).
func (c *SingleNodeClient) Do(op store.Op) (store.Result, error) {
	raw, err := c.rpc.call(c.s.ID(), op.Encode(), c.Timeout)
	if err != nil {
		return store.Result{}, err
	}
	return store.DecodeResult(raw)
}

// Close releases the client.
func (c *SingleNodeClient) Close() { c.rpc.close() }
