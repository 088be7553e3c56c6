package smr

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"amcast/internal/core"
	"amcast/internal/recovery"
	"amcast/internal/transport"
)

// BuildNodeResult carries what BuildNode recovered.
type BuildNodeResult struct {
	// Node is ready to Join/Subscribe with recovery applied.
	Node *core.Node
	// Checkpoint is the state snapshot to restore (nil state if none).
	Checkpoint recovery.Checkpoint
	// Remote reports whether the checkpoint came from a peer.
	Remote bool
}

// RecoveryOptions parameterizes BuildNode.
type RecoveryOptions struct {
	// Self, Router, Coord, NewLog, M, Ring: as core.Config.
	Core core.Config
	// Store is the local checkpoint store.
	Store recovery.Store
	// Peers are partition peers to query for newer checkpoints.
	Peers []transport.ProcessID
	// Service is the process's service inbox (consumed during recovery
	// only; hand it to the Replica afterwards).
	Service *transport.Inbox
	// Timeout bounds waiting for peer checkpoint responses.
	Timeout time.Duration
}

// BuildNode performs replica recovery per Section 5.2 and returns a
// configured (but not yet joined/subscribed) core.Node:
//
//  1. Load the latest local checkpoint.
//  2. Ask partition peers for their checkpoint tuples and wait for a
//     recovery quorum Q_R (majority of the partition, counting self).
//  3. Select the most up-to-date checkpoint (Predicate 3); if remote,
//     fetch its snapshot.
//  4. Configure the node's StartVector/StartCursor from it.
//
// On a fresh partition (no checkpoints anywhere) it returns a clean node.
func BuildNode(opts RecoveryOptions) (BuildNodeResult, error) {
	if opts.Timeout == 0 {
		opts.Timeout = 2 * time.Second
	}
	var local recovery.Checkpoint
	if opts.Store != nil {
		if cp, ok := opts.Store.Latest(); ok {
			local = cp
		}
	}
	localEpoch := uint64(0)
	if cur, err := decodeStateCursor(local.State); err == nil {
		localEpoch = cur.Epoch
	}
	best := local
	bestEpoch := localEpoch
	bestPeer := transport.ProcessID(0)
	remote := false

	tr := opts.Core.Router.Transport()
	if len(opts.Peers) > 0 && opts.Service != nil {
		quorum := (len(opts.Peers)+1)/2 + 1 // majority incl. self
		reqSeq := uint64(time.Now().UnixNano())
		for _, p := range opts.Peers {
			_ = tr.Send(p, transport.Message{Kind: transport.KindCheckpointReq, Seq: reqSeq})
		}
		got := 1 // self
		deadline := time.After(opts.Timeout)
		for got < quorum {
			m, ok := nextMessage(opts.Service, deadline)
			if !ok {
				break
			}
			if m.Kind != transport.KindCheckpointResp || m.Seq != reqSeq {
				continue // stale traffic during recovery
			}
			vec, rest, err := recovery.DecodeVector(m.Payload)
			if err != nil {
				continue
			}
			// Subscription epoch rides after the vector (absent in
			// pre-reconfig responses → epoch 0). A higher epoch wins
			// outright: vectors across an epoch boundary are not
			// comparable entrywise (the group set changed), but the
			// transition itself was checkpointed, so the higher-epoch
			// tuple is by construction the later one.
			var epoch uint64
			if len(rest) >= 8 {
				epoch = binary.LittleEndian.Uint64(rest[:8])
			}
			got++
			if epoch > bestEpoch || (epoch == bestEpoch && recovery.Compare(vec, best.Vector) > 0) {
				best = recovery.Checkpoint{Vector: vec}
				bestEpoch = epoch
				bestPeer = m.From
			}
		}
		// Fetch the remote snapshot if a peer is ahead of us. The peer
		// streams it as KindSnapshotChunk frames (a monolithic response
		// could not carry a state larger than one transport frame);
		// reassemble and verify before adopting it. On ANY failure —
		// timeout, inconsistent framing, CRC mismatch, undecodable
		// checkpoint — fall back to the LOCAL checkpoint: a vector
		// without its state must never survive here, because restarting
		// with a safeVec we do not actually hold would let the trim
		// protocol (Predicate 2) discard instances we still need.
		if bestPeer != 0 {
			_ = tr.Send(bestPeer, transport.Message{Kind: transport.KindSnapshotReq, Seq: reqSeq})
			deadline := time.After(opts.Timeout)
			var asm *ChunkAssembly
			best = local
			// A timeout leaves the local checkpoint: the acceptors still
			// have the gap between it and the tip (Predicate 5).
			for {
				m, ok := nextMessage(opts.Service, deadline)
				if !ok {
					break
				}
				if m.Kind != transport.KindSnapshotChunk || m.Seq != reqSeq {
					continue
				}
				if asm == nil {
					if asm = NewChunkAssembly(m); asm == nil {
						break
					}
				}
				done, err := asm.Add(m)
				if err != nil {
					break
				}
				if !done {
					continue
				}
				if cp, err := recovery.DecodeCheckpoint(asm.buf); err == nil {
					best, remote = cp, true
				}
				break
			}
		}
	}

	cfg := opts.Core
	if len(best.Vector) > 0 {
		cfg.StartVector = best.Vector
		if cur, err := decodeStateCursor(best.State); err == nil {
			cfg.StartCursor = cur
		}
	}
	node, err := core.New(cfg)
	if err != nil {
		return BuildNodeResult{}, err
	}
	return BuildNodeResult{Node: node, Checkpoint: best, Remote: remote}, nil
}

// nextMessage takes the next message from a service inbox, or reports
// false once deadline fires or the inbox closes. It takes one at a time,
// so what recovery does not wait for stays queued for the replica.
func nextMessage(in *transport.Inbox, deadline <-chan time.Time) (transport.Message, bool) {
	var one [1]transport.Message
	for {
		select {
		case <-in.Ready():
			got, open := in.Take(one[:0], 1)
			if !open {
				return transport.Message{}, false
			}
			if len(got) == 1 {
				return got[0], true
			}
		case <-deadline:
			return transport.Message{}, false
		}
	}
}

// snapshotChunkSize bounds one chunked-transfer payload. It is kept far
// below transport's 64 MB frame cap so a multi-gigabyte checkpoint streams
// as many small frames instead of one monolithic KindSnapshotResp-style
// message that could never fit a frame (and would previously fail recovery
// silently). Variable so tests can force multi-chunk transfers with small
// states.
var snapshotChunkSize = 256 << 10

// SendChunked streams an encoded blob to a peer as chunked frames of the
// given kind (KindSnapshotChunk for checkpoints, KindRangeChunk for
// partition-split range transfers). Each frame carries the request Seq,
// its chunk index (Votes), the chunk count (Count), the byte offset
// (Instance), the total encoded size (Value.ID) and the CRC of the full
// encoding (Ballot), so the receiver can reassemble and verify before
// decoding.
func SendChunked(tr transport.Transport, to transport.ProcessID, kind transport.Kind, seq uint64, enc []byte) {
	crc := crc32.ChecksumIEEE(enc)
	total := (len(enc) + snapshotChunkSize - 1) / snapshotChunkSize
	if total == 0 {
		total = 1
	}
	for i := 0; i < total; i++ {
		off := i * snapshotChunkSize
		end := off + snapshotChunkSize
		if end > len(enc) {
			end = len(enc)
		}
		if tr.Send(to, transport.Message{
			Kind:     kind,
			Seq:      seq,
			Instance: uint64(off),
			Count:    uint32(total),
			Votes:    uint32(i),
			Ballot:   crc,
			Value:    transport.Value{ID: uint64(len(enc))},
			Payload:  enc[off:end],
		}) != nil {
			return // link down; the peer's fetch deadline handles it
		}
	}
}

// sendSnapshotChunks streams an encoded checkpoint to a recovering peer.
func sendSnapshotChunks(tr transport.Transport, to transport.ProcessID, seq uint64, enc []byte) {
	SendChunked(tr, to, transport.KindSnapshotChunk, seq, enc)
}

// Assembly sanity caps: the claimed transfer size and chunk count come
// from a peer's frame, so a corrupt first chunk must not drive the
// allocations below — reject absurd framing and fall back to the local
// checkpoint instead of attempting a multi-terabyte make.
const (
	maxSnapshotTransfer uint64 = 16 << 30 // bytes of reassembled checkpoint
	maxSnapshotChunks          = 1 << 20
)

// ChunkAssembly reassembles a chunked transfer (the receive side of
// SendChunked). Recovery uses it for checkpoint fetches; the reconfig
// controller reuses it verbatim for CRC-verified range transfers.
type ChunkAssembly struct {
	buf  []byte
	got  []bool
	left int
	crc  uint32
}

// NewChunkAssembly sizes an assembly from the first chunk's framing.
// Returns nil if the framing is nonsensical.
func NewChunkAssembly(m transport.Message) *ChunkAssembly {
	total := int(m.Count)
	size64 := m.Value.ID
	// The int round-trip additionally rejects sizes past the platform's
	// address space (32-bit builds cap below maxSnapshotTransfer).
	if total < 1 || total > maxSnapshotChunks || size64 > maxSnapshotTransfer ||
		uint64(int(size64)) != size64 || size64 > 0 && uint64(total) > size64 {
		return nil
	}
	size := int(size64)
	return &ChunkAssembly{
		buf:  make([]byte, size),
		got:  make([]bool, total),
		left: total,
		crc:  m.Ballot,
	}
}

// Add incorporates one chunk. It returns done=true once every chunk has
// arrived and the reassembled bytes pass the transfer CRC; a non-nil error
// reports an inconsistent or corrupt transfer (the caller falls back or
// aborts).
func (a *ChunkAssembly) Add(m transport.Message) (done bool, err error) {
	idx := int(m.Votes)
	if idx < 0 || idx >= len(a.got) || m.Ballot != a.crc || m.Value.ID != uint64(len(a.buf)) {
		return false, recovery.ErrCorrupt
	}
	if m.Instance > uint64(len(a.buf)) {
		return false, recovery.ErrCorrupt
	}
	off := int(m.Instance)
	if off+len(m.Payload) > len(a.buf) {
		return false, recovery.ErrCorrupt
	}
	if a.got[idx] {
		return false, nil // duplicate frame (retransmission); ignore
	}
	copy(a.buf[off:], m.Payload)
	a.got[idx] = true
	a.left--
	if a.left > 0 {
		return false, nil
	}
	if crc32.ChecksumIEEE(a.buf) != a.crc {
		return true, recovery.ErrCorrupt
	}
	return true, nil
}

// Bytes returns the reassembled transfer; valid only after Add reported
// done with a nil error.
func (a *ChunkAssembly) Bytes() []byte { return a.buf }
