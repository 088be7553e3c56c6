package store

import (
	"fmt"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/storage"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// ServerConfig configures one MRP-Store replica process.
type ServerConfig struct {
	// Self is the process id.
	Self transport.ProcessID
	// Partition is the partition ring this server replicates.
	Partition transport.RingID
	// Peers are the other replicas of the same partition.
	Peers []transport.ProcessID
	// Router/Coord wire the process into the deployment.
	Router *transport.Router
	Coord  *coord.Service
	// NewLog supplies acceptor logs (defaults to in-memory); an error
	// fails server startup.
	NewLog func(transport.RingID) (storage.Log, error)
	// Checkpoints persists checkpoints; defaults to an in-memory store.
	Checkpoints recovery.Store
	// CheckpointEvery commands between checkpoints (0 disables).
	CheckpointEvery int
	// Ring tunes the consensus rings.
	Ring core.RingOptions
	// GlobalLambda overrides the rate-leveling λ on the global ring (0
	// keeps Ring.Lambda). A higher global λ keeps the deterministic
	// merge from waiting on the (mostly idle) global ring.
	GlobalLambda int
	// RecoveryTimeout bounds peer recovery; zero skips peer recovery.
	RecoveryTimeout time.Duration
	// Tracer, when set, records this process's spans for distributed
	// tracing (telemetry only).
	Tracer *trace.Recorder
}

// Server is one MRP-Store replica: it loads the schema, recovers, joins
// its partition ring (and the global ring if the schema has one) and
// serves.
type Server struct {
	sm      *SM
	replica *smr.Replica
	schema  Schema
}

// NewServer boots a replica per the published schema.
func NewServer(cfg ServerConfig) (*Server, error) {
	schema, err := LoadSchema(cfg.Coord)
	if err != nil {
		return nil, err
	}
	if cfg.Checkpoints == nil {
		cfg.Checkpoints = recovery.NewMemStore()
	}
	groups := []transport.RingID{cfg.Partition}
	if schema.GlobalGroup != 0 {
		groups = append(groups, schema.GlobalGroup)
	}
	built, err := smr.BuildNode(smr.RecoveryOptions{
		Core: core.Config{
			Self:           cfg.Self,
			Router:         cfg.Router,
			Coord:          cfg.Coord,
			NewLog:         cfg.NewLog,
			Ring:           cfg.Ring,
			Tracer:         cfg.Tracer,
			LambdaOverride: globalLambdaOverride(schema.GlobalGroup, cfg.GlobalLambda),
		},
		Store:   cfg.Checkpoints,
		Peers:   peersOrNil(cfg.RecoveryTimeout, cfg.Peers),
		Service: cfg.Router.Service(),
		Timeout: cfg.RecoveryTimeout,
	})
	if err != nil {
		return nil, err
	}
	sm := NewSM()
	// Range-partitioned schemas enforce ownership: configure the bounds
	// from the schema; a recovered checkpoint that carries (post-split)
	// bounds overrides them during restore.
	if lo, hi, ok := schema.RangeOf(cfg.Partition); ok {
		sm.SetOwnedRange(lo, hi)
	}
	tr := cfg.Router.Transport()
	rep, err := smr.NewReplica(smr.ReplicaConfig{
		Self:            cfg.Self,
		Partition:       cfg.Partition,
		Groups:          groups,
		Peers:           cfg.Peers,
		Node:            built.Node,
		Transport:       tr,
		Service:         cfg.Router.Service(),
		SM:              sm,
		Checkpoints:     cfg.Checkpoints,
		CheckpointEvery: cfg.CheckpointEvery,
		ServiceHook:     rangeTransferHook(sm, tr),
		Tracer:          cfg.Tracer,
	}, built.Checkpoint)
	if err != nil {
		built.Node.Stop()
		return nil, fmt.Errorf("store: start replica: %w", err)
	}
	return &Server{sm: sm, replica: rep, schema: schema}, nil
}

// rangeTransferHook serves the reconfig controller's split-range RPCs on
// the replica's service goroutine: KindRangeReq streams a stashed
// outgoing range back as CRC-verified KindRangeChunk frames (Count 1
// releases the stash instead, once the controller confirmed the
// transfer). Serialization runs here, off the delivery path — the stash
// is an immutable snapshot.
func rangeTransferHook(sm *SM, tr transport.Transport) func(transport.Message) bool {
	return func(m transport.Message) bool {
		if m.Kind != transport.KindRangeReq {
			return false
		}
		if m.Count == 1 {
			sm.ReleaseOutgoing(m.Instance)
			return true
		}
		if tr == nil {
			return true
		}
		enc, ok := sm.OutgoingRange(m.Instance)
		if !ok {
			// Stash unknown (e.g. this replica restarted since the
			// marker): stay silent, the controller's deadline moves it
			// to the next peer.
			return true
		}
		smr.SendChunked(tr, m.From, transport.KindRangeChunk, m.Seq, enc)
		return true
	}
}

// globalLambdaOverride builds the per-ring λ override map.
func globalLambdaOverride(global transport.RingID, lambda int) map[transport.RingID]int {
	if global == 0 || lambda == 0 {
		return nil
	}
	return map[transport.RingID]int{global: lambda}
}

func peersOrNil(timeout time.Duration, peers []transport.ProcessID) []transport.ProcessID {
	if timeout == 0 {
		return nil
	}
	return peers
}

// SM exposes the state machine (instrumentation).
func (s *Server) SM() *SM { return s.sm }

// Replica exposes the underlying replica (instrumentation).
func (s *Server) Replica() *smr.Replica { return s.replica }

// Stop halts the server.
func (s *Server) Stop() { s.replica.Stop() }
