package transport

import (
	"testing"
	"time"

	"amcast/internal/bufpool"
)

// allocPair builds a warmed-up TCP loopback pair plus a reusable burst
// of ring-kind messages, the steady-state shape the pooled read path is
// specced for.
func allocPair(t *testing.T) (send, recv *TCPNode, msgs []Message) {
	t.Helper()
	recv, err := ListenTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = recv.Close() })
	send, err = ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = send.Close() })
	send.SetPeer(2, recv.Addr())

	payload := make([]byte, 160)
	msgs = make([]Message, 64)
	for i := range msgs {
		msgs[i] = Message{
			Kind:  KindPhase2,
			To:    2,
			Ring:  1,
			Value: Value{ID: uint64(i + 1), Data: payload},
		}
	}
	return send, recv, msgs
}

// roundTrip sends the burst and drains exactly that many messages from
// the receiver, honoring the pooled-ownership contract.
func roundTrip(t *testing.T, send, recv *TCPNode, msgs []Message, seq *uint64) {
	t.Helper()
	for i := range msgs {
		*seq++
		msgs[i].Seq = *seq
		msgs[i].Instance = *seq
	}
	if err := send.SendBatch(msgs); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	for range msgs {
		m, ok := <-recv.Recv()
		if !ok {
			t.Fatal("receiver closed mid-burst")
		}
		m.ReleaseRefs()
	}
}

// TestTCPSteadyStateAllocs pins the tentpole's zero-allocation claim as
// a regression test: once the pool free lists and the connection are
// warm, pushing ring-kind bursts through encode -> syscall -> pooled
// block read -> decode -> deliver -> release must not allocate. The
// bound is a whole-process measurement (AllocsPerRun reads MemStats),
// so it charges the sender, readLoop, inbox and Recv bridge together.
func TestTCPSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	send, recv, msgs := allocPair(t)
	var seq uint64
	// Warm up: fill pool free lists, grow the inbox queue and the
	// connection's retained write buffer to their steady-state sizes.
	for i := 0; i < 50; i++ {
		roundTrip(t, send, recv, msgs, &seq)
	}
	allocs := testing.AllocsPerRun(50, func() {
		roundTrip(t, send, recv, msgs, &seq)
	})
	// Each run moves 64 messages; a handful of incidental allocations
	// (runtime timers, scheduler bookkeeping) is tolerated, per-message
	// allocations are not.
	if allocs > 8 {
		t.Errorf("steady-state burst allocates %.1f/run (%.3f/msg), want ~0", allocs, allocs/float64(len(msgs)))
	}
}

// TestTCPRefcountRoundTrip checks the ownership ledger end to end: ring
// frames arrive aliasing pooled read blocks, the consumer's ReleaseRefs
// is the only discharge, and once traffic stops and the nodes close,
// every pooled buffer the transport took out comes back.
func TestTCPRefcountRoundTrip(t *testing.T) {
	before := bufpool.Outstanding()
	send, recv, msgs := allocPair(t)
	var seq uint64
	for i := 0; i < 20; i++ {
		roundTrip(t, send, recv, msgs, &seq)
	}
	// Ring kinds must carry their block reference to the consumer.
	for i := range msgs {
		seq++
		msgs[i].Seq = seq
		msgs[i].Instance = seq
	}
	if err := send.SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	m, ok := <-recv.Recv()
	if !ok {
		t.Fatal("receiver closed")
	}
	if m.Block == nil {
		t.Fatal("ring-kind message arrived without a pooled block reference")
	}
	if refs := m.Block.Refs(); refs < 1 {
		t.Fatalf("delivered block has %d refs, want >= 1", refs)
	}
	m.ReleaseRefs()
	for i := 1; i < len(msgs); i++ {
		m, ok := <-recv.Recv()
		if !ok {
			t.Fatal("receiver closed mid-burst")
		}
		m.ReleaseRefs()
	}

	_ = send.Close()
	_ = recv.Close()
	// Closing tears down readLoops and the Recv bridge asynchronously; the
	// ledger must return to its starting point once they finish.
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() != before {
		if time.Now().After(deadline) {
			t.Fatalf("outstanding pool buffers = %d, want %d (leaked transport refs)",
				bufpool.Outstanding(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
