package baseline

import (
	"encoding/binary"
	"sync"
	"time"

	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// BookLogConfig configures the Bookkeeper-like log.
type BookLogConfig struct {
	// Net is the shared emulated network.
	Net *transport.Network
	// Ensemble is the number of storage nodes (paper: 3); writes are
	// acknowledged by a quorum (majority).
	Ensemble int
	// FlushInterval is the leader's batch window: entries buffer until
	// the window closes, then one synchronous quorum write commits the
	// whole batch. This is the "aggressive batching mechanism, which
	// attempts to maximize disk use by writing in large chunks" that
	// explains Bookkeeper's large latency in Figure 5.
	FlushInterval time.Duration
	// NewDisk supplies each node's journal device (default: sync HDD).
	NewDisk func() storage.Log
	// BaseID is the first process id used by nodes.
	BaseID transport.ProcessID
}

// BookLog models Apache Bookkeeper for Figure 5: a quorum-replicated
// synchronous log with time-based batch commits.
type BookLog struct {
	cfg    BookLogConfig
	leader *bookLeader
	nodes  []*bookNode
}

type pendingAppend struct {
	client transport.ProcessID
	seq    uint64
	size   int
}

type bookLeader struct {
	cfg   *BookLogConfig
	tr    transport.Transport
	disk  storage.Log
	peers []transport.ProcessID

	mu      sync.Mutex
	batch   []pendingAppend
	nextPos uint64
	acks    map[uint64]int // batch id -> follower acks
	flights map[uint64][]pendingAppend

	done     chan struct{}
	loopDone chan struct{}
}

type bookNode struct {
	tr   transport.Transport
	disk storage.Log

	done     chan struct{}
	loopDone chan struct{}
}

// StartBookLog boots the ensemble: node 0 is the leader clients talk to.
func StartBookLog(cfg BookLogConfig) (*BookLog, error) {
	if cfg.Ensemble == 0 {
		cfg.Ensemble = 3
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 20 * time.Millisecond
	}
	if cfg.NewDisk == nil {
		cfg.NewDisk = func() storage.Log {
			return storage.NewSimDisk(storage.NewMemLog(), storage.HDDSpec(), true, 1)
		}
	}
	if cfg.BaseID == 0 {
		cfg.BaseID = 32000
	}
	b := &BookLog{cfg: cfg}
	leaderID := cfg.BaseID
	var peers []transport.ProcessID
	for i := 1; i < cfg.Ensemble; i++ {
		id := cfg.BaseID + transport.ProcessID(i)
		peers = append(peers, id)
		node := &bookNode{
			disk:     cfg.NewDisk(),
			done:     make(chan struct{}),
			loopDone: make(chan struct{}),
		}
		tr, router := attach(cfg.Net, id, netem.SiteLocal)
		node.tr = tr
		go node.loop(router.Service())
		b.nodes = append(b.nodes, node)
	}
	leader := &bookLeader{
		cfg:      &cfg,
		disk:     cfg.NewDisk(),
		peers:    peers,
		acks:     make(map[uint64]int),
		flights:  make(map[uint64][]pendingAppend),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	tr, router := attach(cfg.Net, leaderID, netem.SiteLocal)
	leader.tr = tr
	go leader.loop(router.Service())
	b.leader = leader
	return b, nil
}

// LeaderID returns the process clients send appends to.
func (b *BookLog) LeaderID() transport.ProcessID { return b.cfg.BaseID }

// Stop halts the ensemble.
func (b *BookLog) Stop() {
	close(b.leader.done)
	<-b.leader.loopDone
	_ = b.leader.tr.Close()
	for _, n := range b.nodes {
		close(n.done)
		<-n.loopDone
		_ = n.tr.Close()
	}
}

func (l *bookLeader) loop(service *transport.Inbox) {
	defer close(l.loopDone)
	flush := time.NewTicker(l.cfg.FlushInterval)
	defer flush.Stop()
	batchID := uint64(0)
	var burst []transport.Message
	for {
		select {
		case <-l.done:
			return
		case <-flush.C:
			l.mu.Lock()
			if len(l.batch) == 0 {
				l.mu.Unlock()
				continue
			}
			batchID++
			entries := l.batch
			l.batch = nil
			l.flights[batchID] = entries
			l.acks[batchID] = 1 // the leader's own journal write below
			l.mu.Unlock()

			// One large synchronous chunk to the local journal.
			size := 0
			for _, e := range entries {
				size += e.size
			}
			_ = l.disk.Put(batchID, make([]byte, size))
			// Replicate the chunk; followers ack after their sync
			// write.
			for _, p := range l.peers {
				var hdr [8]byte
				binary.LittleEndian.PutUint64(hdr[:], batchID)
				_ = l.tr.Send(p, transport.Message{
					Kind:    transport.KindCommand,
					Seq:     batchID,
					Payload: append(hdr[:], make([]byte, size)...),
				})
			}
			l.maybeCommit(batchID)
		case <-service.Ready():
			var open bool
			burst, open = service.Take(burst[:0], 64)
			for _, m := range burst {
				l.handle(m)
			}
			if !open {
				return
			}
		}
	}
}

func (l *bookLeader) handle(m transport.Message) {
	switch m.Kind {
	case transport.KindCommand: // client append
		l.mu.Lock()
		l.batch = append(l.batch, pendingAppend{
			client: m.From, seq: m.Seq, size: len(m.Payload),
		})
		l.mu.Unlock()
	case transport.KindResponse: // follower ack
		l.mu.Lock()
		l.acks[m.Seq]++
		l.mu.Unlock()
		l.maybeCommit(m.Seq)
	default:
		// The bookkeeper baseline speaks only append/ack; other kinds
		// addressed to this process are stray traffic from the shared
		// transport and are dropped.
	}
}

// maybeCommit responds to every append of a batch once a majority of the
// ensemble has journaled it.
func (l *bookLeader) maybeCommit(batchID uint64) {
	quorum := l.cfg.Ensemble/2 + 1
	l.mu.Lock()
	if l.acks[batchID] < quorum {
		l.mu.Unlock()
		return
	}
	entries := l.flights[batchID]
	delete(l.flights, batchID)
	delete(l.acks, batchID)
	pos := l.nextPos
	l.nextPos += uint64(len(entries))
	l.mu.Unlock()
	for i, e := range entries {
		var posBuf [8]byte
		binary.LittleEndian.PutUint64(posBuf[:], pos+uint64(i))
		_ = l.tr.Send(e.client, transport.Message{
			Kind:    transport.KindResponse,
			Seq:     e.seq,
			Payload: posBuf[:],
		})
	}
}

func (n *bookNode) loop(service *transport.Inbox) {
	defer close(n.loopDone)
	serve(service, n.done, func(m transport.Message) {
		if m.Kind != transport.KindCommand || len(m.Payload) < 8 {
			return
		}
		batchID := binary.LittleEndian.Uint64(m.Payload[:8])
		_ = n.disk.Put(batchID, m.Payload[8:]) // synchronous journal write
		_ = n.tr.Send(m.From, transport.Message{Kind: transport.KindResponse, Seq: batchID})
	})
}

// BookClient appends to the Bookkeeper model.
type BookClient struct {
	b   *BookLog
	rpc *rpcClient
	// Timeout per append.
	Timeout time.Duration
}

// NewClient attaches a client process.
func (b *BookLog) NewClient(id transport.ProcessID) *BookClient {
	tr, router := attach(b.cfg.Net, id, netem.SiteLocal)
	return &BookClient{b: b, rpc: newRPCClient(tr, router.Service()), Timeout: 30 * time.Second}
}

// Append adds an entry and returns its position.
func (c *BookClient) Append(v []byte) (uint64, error) {
	raw, err := c.rpc.call(c.b.LeaderID(), v, c.Timeout)
	if err != nil {
		return 0, err
	}
	if len(raw) < 8 {
		return 0, errTimeout
	}
	return binary.LittleEndian.Uint64(raw), nil
}

// Close releases the client.
func (c *BookClient) Close() { c.rpc.close() }
