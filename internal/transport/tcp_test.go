package transport

import (
	"encoding/binary"
	"net"
	"testing"
	"time"
)

func newTCPPair(t *testing.T) (*TCPNode, *TCPNode) {
	t.Helper()
	a, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(2, "127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)
	msg := Message{Kind: KindCommand, Ring: 3, Seq: 41, Value: Value{ID: 9, Data: []byte("payload")}}
	if err := a.Send(2, msg); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b, 2*time.Second)
	if got.From != 1 || got.Seq != 41 || string(got.Value.Data) != "payload" {
		t.Errorf("unexpected message %+v", got)
	}

	// Reply reuses the inbound stream (peer learned via handshake).
	if err := b.Send(1, Message{Kind: KindResponse, Seq: 42}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a, 2*time.Second); got.Seq != 42 {
		t.Errorf("reply seq = %d, want 42", got.Seq)
	}
}

func TestTCPManyMessagesFIFO(t *testing.T) {
	a, b := newTCPPair(t)
	const count = 500
	for i := uint64(0); i < count; i++ {
		if err := a.Send(2, Message{Kind: KindCommand, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < count; i++ {
		if got := recvOne(t, b, 5*time.Second); got.Seq != i {
			t.Fatalf("out of order at %d: got %d", i, got.Seq)
		}
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send(77, Message{Kind: KindCommand}); err != nil {
		t.Errorf("send to unknown peer should be silently lost, got %v", err)
	}
}

func TestTCPSendToDeadPeer(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	a.SetPeer(2, "127.0.0.1:1") // nothing listening
	if err := a.Send(2, Message{Kind: KindCommand}); err != nil {
		t.Errorf("send to dead peer should be silently lost, got %v", err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close errored: %v", err)
	}
	if err := a.Send(2, Message{}); err != ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

func TestTCPPeerRestart(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ListenTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a.SetPeer(2, addr)
	if err := a.Send(2, Message{Seq: 1, Kind: KindCommand}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 2*time.Second)
	_ = b.Close()

	// Sends while the peer is down are lost but not fatal.
	_ = a.Send(2, Message{Seq: 2, Kind: KindCommand})

	b2, err := ListenTCP(2, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer func() { _ = b2.Close() }()

	// Eventually a fresh send gets through after redial.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_ = a.Send(2, Message{Seq: 3, Kind: KindCommand})
		select {
		case m, ok := <-b2.Recv():
			if ok && m.Seq == 3 {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("message never delivered after peer restart")
}

// dialRaw opens a raw client connection to node n, completing the
// identification handshake as peer id.
func dialRaw(t *testing.T, n *TCPNode, id ProcessID) net.Conn {
	t.Helper()
	raw, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(id))
	if _, err := raw.Write(hello[:]); err != nil {
		_ = raw.Close()
		t.Fatal(err)
	}
	return raw
}

// TestTCPOversizedFrameRejected feeds a frame whose length prefix exceeds
// maxFrame: the reader must drop the connection instead of allocating the
// claimed size, and the node must keep serving other connections.
func TestTCPOversizedFrameRejected(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	evil := dialRaw(t, a, 66)
	defer func() { _ = evil.Close() }()
	var header [4]byte
	binary.LittleEndian.PutUint32(header[:], maxFrame+1)
	if _, err := evil.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	// The reader closes the connection without consuming a body.
	_ = evil.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := evil.Read(header[:]); err == nil {
		t.Error("oversized frame did not close the connection")
	}

	// Zero-length frames are rejected the same way.
	evil2 := dialRaw(t, a, 67)
	defer func() { _ = evil2.Close() }()
	binary.LittleEndian.PutUint32(header[:], 0)
	if _, err := evil2.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	_ = evil2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := evil2.Read(header[:]); err == nil {
		t.Error("zero-length frame did not close the connection")
	}

	// The node still accepts well-formed traffic afterwards.
	good := dialRaw(t, a, 3)
	defer func() { _ = good.Close() }()
	m := Message{Kind: KindCommand, Seq: 99}
	frame := make([]byte, 4, 4+m.EncodedSize())
	frame = m.AppendEncode(frame)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	if _, err := good.Write(frame); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a, 2*time.Second); got.Seq != 99 {
		t.Errorf("post-rejection message seq = %d, want 99", got.Seq)
	}
}

// TestTCPCorruptFrameClosesConnection sends a frame whose body does not
// decode: the reader drops the connection rather than delivering garbage.
func TestTCPCorruptFrameClosesConnection(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	c := dialRaw(t, a, 68)
	defer func() { _ = c.Close() }()
	var header [4]byte
	binary.LittleEndian.PutUint32(header[:], 3)
	if _, err := c.Write(append(header[:], 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(header[:]); err == nil {
		t.Error("corrupt frame did not close the connection")
	}
}

// TestTCPRedialAfterDrop exercises the Send-side redial path: after the
// peer's connection drops mid-stream, a later Send establishes a fresh
// connection transparently.
func TestTCPRedialAfterDrop(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Send(2, Message{Kind: KindCommand, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 2*time.Second)

	// Kill b's inbound connections out from under a.
	b.mu.Lock()
	for id, c := range b.conns {
		_ = c.c.Close()
		delete(b.conns, id)
	}
	b.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_ = a.Send(2, Message{Kind: KindCommand, Seq: 2})
		select {
		case m, ok := <-b.Recv():
			if ok && m.Seq == 2 {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("message never delivered after connection drop")
}

func TestTCPSendBatchCoalesced(t *testing.T) {
	a, b := newTCPPair(t)
	const count = 400
	msgs := make([]Message, count)
	for i := range msgs {
		msgs[i] = Message{
			Kind:  KindPhase2,
			To:    2,
			Seq:   uint64(i),
			Value: Value{ID: uint64(i + 1), Data: []byte{byte(i), byte(i >> 8)}},
		}
	}
	// One call: all frames encode into one buffer and (conn permitting)
	// one write; every message must arrive intact and in order.
	if err := a.SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		got := recvOne(t, b, 5*time.Second)
		if got.Seq != uint64(i) || got.From != 1 {
			t.Fatalf("message %d: got seq %d from %d", i, got.Seq, got.From)
		}
		if got.Value.Data[0] != byte(i) || got.Value.Data[1] != byte(i>>8) {
			t.Fatalf("message %d: payload corrupted: %v", i, got.Value.Data)
		}
	}
}

func TestTCPSendBatchMultiDestinationRuns(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := ListenTCP(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close(); _ = c.Close() })
	a.SetPeer(2, b.Addr())
	a.SetPeer(3, c.Addr())

	// Alternating destinations force multiple coalescing runs; order must
	// hold per destination.
	var msgs []Message
	for i := 0; i < 60; i++ {
		msgs = append(msgs, Message{Kind: KindDecision, To: ProcessID(2 + i%2), Seq: uint64(i)})
	}
	if err := a.SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if got := recvOne(t, b, 5*time.Second); got.Seq != uint64(2*i) {
			t.Fatalf("b message %d: seq %d", i, got.Seq)
		}
		if got := recvOne(t, c, 5*time.Second); got.Seq != uint64(2*i+1) {
			t.Fatalf("c message %d: seq %d", i, got.Seq)
		}
	}
}

func TestTCPSendBatchInterleavedWithSend(t *testing.T) {
	a, b := newTCPPair(t)
	for i := 0; i < 50; i++ {
		if err := a.Send(2, Message{Kind: KindCommand, Seq: uint64(2 * i)}); err != nil {
			t.Fatal(err)
		}
		if err := a.SendBatch([]Message{{Kind: KindCommand, To: 2, Seq: uint64(2*i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		if got := recvOne(t, b, 5*time.Second); got.Seq != i {
			t.Fatalf("out of order at %d: got %d", i, got.Seq)
		}
	}
}

func TestTCPSendBatchUnknownPeerSkipsRun(t *testing.T) {
	a, b := newTCPPair(t)
	msgs := []Message{
		{Kind: KindCommand, To: 9, Seq: 1}, // unknown: dropped silently
		{Kind: KindCommand, To: 2, Seq: 2},
	}
	if err := a.SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b, 5*time.Second); got.Seq != 2 {
		t.Fatalf("got seq %d, want 2", got.Seq)
	}
}

// TestTCPFirstSelfSendArrives: a message a node sends to itself goes
// straight to its own router, by Send or SendBatch, with or without its
// own address registered, and the node never dials itself. (Through a connection to itself, the
// accepted end once won the race against the dialled one and the first
// self-send — a coordinator's own proposal — was lost.)
func TestTCPFirstSelfSendArrives(t *testing.T) {
	for i := 0; i < 1000; i++ {
		n, err := ListenTCP(1, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := Message{Kind: KindProposal, To: 1, Seq: uint64(i)}
		if i%2 == 0 {
			n.SetPeer(1, n.Addr())
			err = n.Send(1, m)
		} else {
			err = n.SendBatch([]Message{m})
		}
		if err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-n.Recv():
			if m.Seq != uint64(i) || m.From != 1 || m.To != 1 {
				t.Fatalf("node %d received %+v", i, m)
			}
			m.ReleaseRefs()
		case <-time.After(2 * time.Second):
			t.Fatalf("node %d: first self-send lost", i)
		}
		n.mu.Lock()
		conns := len(n.conns)
		n.mu.Unlock()
		if conns != 0 {
			t.Fatalf("node %d holds %d connections after sending only to itself", i, conns)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if err := n.Send(1, Message{Kind: KindProposal}); err != ErrClosed {
			t.Fatalf("self-send after Close = %v, want ErrClosed", err)
		}
	}
}
