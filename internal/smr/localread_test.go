package smr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"amcast/internal/netem"
	"amcast/internal/recovery"
	"amcast/internal/transport"
)

// AppendLocalRead makes counterSM a LocalReader: the empty op is "read
// the total"; anything else is not read-only.
func (c *counterSM) AppendLocalRead(dst []byte, _ transport.RingID, op []byte) ([]byte, bool) {
	if len(op) != 0 {
		return dst, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return binary.LittleEndian.AppendUint64(dst, c.total), true
}

// observing returns a client, never started, that has seen replies from
// the groups of v.
func observing(v recovery.Vector) *Client {
	c := &Client{inflight: map[uint64]*call{}, observed: recovery.Vector{}}
	for g, inst := range v {
		c.receiveLocked(transport.Message{Kind: transport.KindResponse, Ring: g, Instance: inst})
	}
	return c
}

func TestLocalReadCodecRoundTrip(t *testing.T) {
	c := observing(recovery.Vector{9: 2, 1: 7, 4: 1})
	payload := c.localReadRequest(ReadIndex, 0, bytesOp([]byte("op")))
	if want := append(append([]byte{byte(ReadIndex)}, recovery.EncodeVector(c.observed)...), "op"...); !bytes.Equal(payload, want) {
		t.Fatalf("read-index request = %x, want mode, EncodeVector's bytes (ascending groups), op: %x", payload, want)
	}
	mode, req, bound, op, err := decodeLocalRead(payload)
	if err != nil || mode != ReadIndex || string(op) != "op" || bound != 0 {
		t.Fatalf("read-index round trip = %v %x %v %q %v", mode, req, bound, op, err)
	}
	if gotReq, rest, err := recovery.DecodeVector(req); err != nil || len(rest) != 0 || len(gotReq) != 3 || gotReq[1] != 7 || gotReq[4] != 1 || gotReq[9] != 2 {
		t.Fatalf("requirement lost: %v %x %v", gotReq, rest, err)
	}
	mode, _, bound, op, err = decodeLocalRead(c.localReadRequest(BoundedStale, 250*time.Millisecond, bytesOp([]byte("x"))))
	if err != nil || mode != BoundedStale || bound != 250*time.Millisecond || string(op) != "x" {
		t.Fatalf("bounded-stale round trip = %v %v %q %v", mode, bound, op, err)
	}
	if _, _, _, _, err := decodeLocalRead(payload[:9]); err == nil {
		t.Error("truncated requirement accepted")
	}
	if _, _, _, _, err := decodeLocalRead(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, _, _, _, err := decodeLocalRead([]byte{99}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestVectorCovers(t *testing.T) {
	applied := recovery.Vector{1: 5, 2: 3}
	for _, tc := range []struct {
		req  recovery.Vector
		want bool
	}{
		{recovery.Vector{}, true},
		{recovery.Vector{1: 5}, true},
		{recovery.Vector{1: 6}, false},
		{recovery.Vector{1: 5, 2: 4}, false},
		{recovery.Vector{7: 100}, true}, // untracked group: ignored
	} {
		if got := applied.Covers(recovery.EncodeVector(tc.req)); got != tc.want {
			t.Errorf("%v.Covers(%v) = %v, want %v", applied, tc.req, got, tc.want)
		}
	}
}

// TestLocalReadRequestAllocs: a local read's request — mode, the observed
// vector, the op — is built in bytes cut from the client's request block,
// the op encoded straight into them: one allocation per 64 KB of requests.
func TestLocalReadRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	c, op := observing(recovery.Vector{1: 10, 2: 20, 3: 30, 4: 40}), bytesOp(make([]byte, 40))
	if got := testing.AllocsPerRun(1000, func() { c.localReadRequest(ReadIndex, 0, op) }); got != 0 {
		t.Errorf("localReadRequest with a 4-group vector: %.1f allocs, want 0", got)
	}
}

// TestLocalReadBlocksUntilCovered parks a read whose requirement is one
// instance ahead of everything applied; it must not complete until the
// next write lands, and must then observe that write's effect.
func TestLocalReadBlocksUntilCovered(t *testing.T) {
	h := newSMRHarness(t, 0)
	if got := h.submit(5); got != 5 {
		t.Fatalf("submit = %d", got)
	}

	// Push the client's cursor one instance past anything delivered.
	h.client.mu.Lock()
	h.client.observed[1]++
	h.client.mu.Unlock()

	type res struct {
		val []byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		v, err := h.client.LocalRead(2, 1, bytesOp(nil), ReadIndex, 0, 5*time.Second)
		done <- res{v, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("cursor-ahead read returned early: %x %v", r.val, r.err)
	case <-time.After(150 * time.Millisecond):
	}

	// The next write covers the requirement and unblocks the read, which
	// must see the write applied (never a stale pre-write state).
	if got := h.submit(7); got != 12 {
		t.Fatalf("second submit = %d", got)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("local read: %v", r.err)
		}
		if got := binary.LittleEndian.Uint64(r.val); got != 12 {
			t.Fatalf("local read observed %d, want 12", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("local read still blocked after covering write")
	}
	if h.replicas[2].LocalReads() == 0 {
		t.Error("serving replica counted no local reads")
	}
	if h.replicas[2].ReadWait().Count() == 0 {
		t.Error("read-wait histogram recorded nothing")
	}
}

// TestLocalReadBoundedStale: with no rate-leveling skips configured, an
// idle replica's merge progress stalls, so a tight staleness bound must
// fail with ErrStale while a generous one is served.
func TestLocalReadBoundedStale(t *testing.T) {
	h := newSMRHarness(t, 0)
	h.submit(3)
	time.Sleep(150 * time.Millisecond)

	if _, err := h.client.LocalRead(1, 1, bytesOp(nil), BoundedStale, 10*time.Millisecond, 2*time.Second); !errors.Is(err, ErrStale) {
		t.Fatalf("tight bound on idle replica: err = %v, want ErrStale", err)
	}
	v, err := h.client.LocalRead(1, 1, bytesOp(nil), BoundedStale, time.Hour, 2*time.Second)
	if err != nil {
		t.Fatalf("generous bound: %v", err)
	}
	if got := binary.LittleEndian.Uint64(v); got != 3 {
		t.Fatalf("stale read = %d, want 3", got)
	}
}

// TestLocalReadRejectsNonReadOnly: ops the state machine does not accept
// as read-only come back as unsupported, not silently executed.
func TestLocalReadRejectsNonReadOnly(t *testing.T) {
	h := newSMRHarness(t, 0)
	h.submit(1)
	if _, err := h.client.LocalRead(1, 1, add(9), ReadIndex, 0, 2*time.Second); !errors.Is(err, ErrLocalReadUnsupported) {
		t.Fatalf("mutating op via local read: err = %v, want ErrLocalReadUnsupported", err)
	}
	// The write must not have executed.
	if got := h.submit(0); got != 1 {
		t.Fatalf("total = %d after rejected local write, want 1", got)
	}
}

// rawReader is a bare process that sends local reads and RPCs straight to
// a replica's service loop and collects what comes back, without a
// client's bookkeeping in between.
type rawReader struct {
	t   *testing.T
	h   *smrHarness
	tr  transport.Transport
	seq uint64
}

func newRawReader(t *testing.T, h *smrHarness) *rawReader {
	return &rawReader{t: t, h: h, tr: h.net.Attach(30, netem.SiteLocal)}
}

func (r *rawReader) send(to transport.ProcessID, kind transport.Kind, payload []byte) {
	r.seq++
	if err := r.tr.Send(to, transport.Message{Kind: kind, From: 30, To: to, Ring: 1, Seq: r.seq, Payload: payload}); err != nil {
		r.t.Fatal(err)
	}
}

// readAhead sends n read-index reads whose requirement is one instance
// past the last write the harness's client saw applied, and waits until
// replica to has parked them.
func (r *rawReader) readAhead(to transport.ProcessID, n int) {
	r.t.Helper()
	rep := r.h.replicas[to]
	r.h.client.mu.Lock()
	req := recovery.EncodeVector(recovery.Vector{1: r.h.client.observed[1] + 1})
	r.h.client.mu.Unlock()
	payload := append([]byte{byte(ReadIndex)}, req...)
	rep.readMu.Lock()
	want := len(rep.parked) + n
	rep.readMu.Unlock()
	for i := 0; i < n; i++ {
		r.send(to, transport.KindLocalRead, payload)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rep.readMu.Lock()
		parked := len(rep.parked)
		rep.readMu.Unlock()
		if parked == want {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("replica %d parked %d reads, want %d", to, parked, want)
		}
	}
}

// recv returns the next message of kind, failing after d.
func (r *rawReader) recv(kind transport.Kind, d time.Duration) transport.Message {
	r.t.Helper()
	timeout := time.After(d)
	for {
		select {
		case m := <-r.tr.Recv():
			if m.Kind == kind {
				return m
			}
		case <-timeout:
			r.t.Fatalf("no %v within %v", kind, d)
		}
	}
}

// quiet fails if anything of kind arrives within d.
func (r *rawReader) quiet(kind transport.Kind, d time.Duration) {
	r.t.Helper()
	timeout := time.After(d)
	for {
		select {
		case m := <-r.tr.Recv():
			if m.Kind == kind {
				r.t.Fatalf("unexpected %v: %x", kind, m.Payload)
			}
		case <-timeout:
			return
		}
	}
}

// TestParkedReadServedWhenCovered: a read-index read the replica's applied
// vector does not cover is parked, not answered, and the batch boundary of
// the next write serves it with that write applied.
func TestParkedReadServedWhenCovered(t *testing.T) {
	h := newSMRHarness(t, 0)
	h.submit(5)
	raw := newRawReader(t, h)
	raw.readAhead(2, 1)
	raw.quiet(transport.KindLocalReadResp, 100*time.Millisecond)
	h.submit(7)
	m := raw.recv(transport.KindLocalReadResp, 5*time.Second)
	if m.Payload[0] != LocalReadOK || binary.LittleEndian.Uint64(m.Payload[1:]) != 12 {
		t.Fatalf("parked read answered %x, want OK and the total 12", m.Payload)
	}
}

// TestParkedReadTimesOut: a parked read nothing covers is answered
// LocalReadTimeout at its deadline, from the loop's one timer.
func TestParkedReadTimesOut(t *testing.T) {
	h := newSMRHarness(t, 0)
	h.submit(5)
	h.replicas[2].readWaitMax = 100 * time.Millisecond // read by the loop after the sends below
	raw := newRawReader(t, h)
	start := time.Now()
	raw.readAhead(2, 3)
	for i := 0; i < 3; i++ {
		if m := raw.recv(transport.KindLocalReadResp, 5*time.Second); !bytes.Equal(m.Payload, []byte{LocalReadTimeout}) {
			t.Fatalf("expired read answered %x, want LocalReadTimeout", m.Payload)
		}
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("reads timed out after %v, before their 100 ms deadline", waited)
	}
}

// TestParkedReadAnsweredAtStop: stopping the replica answers what is
// parked, at once, instead of leaving the clients to their own deadlines.
func TestParkedReadAnsweredAtStop(t *testing.T) {
	h := newSMRHarness(t, 0)
	h.submit(5)
	raw := newRawReader(t, h)
	raw.readAhead(2, 2)
	h.replicas[2].Stop()
	for i := 0; i < 2; i++ {
		if m := raw.recv(transport.KindLocalReadResp, 2*time.Second); !bytes.Equal(m.Payload, []byte{LocalReadTimeout}) {
			t.Fatalf("read parked at Stop answered %x, want LocalReadTimeout", m.Payload)
		}
	}
}

// TestServiceLoopAnswersWhileReadsParked: parked reads never hold up the
// loop that serves them — trim and recovery RPCs are answered meanwhile.
func TestServiceLoopAnswersWhileReadsParked(t *testing.T) {
	h := newSMRHarness(t, 0)
	h.submit(5)
	raw := newRawReader(t, h)
	raw.readAhead(2, 100)
	raw.send(2, transport.KindSafeReq, nil)
	raw.recv(transport.KindSafeResp, 2*time.Second)
	raw.send(2, transport.KindCheckpointReq, nil)
	raw.recv(transport.KindCheckpointResp, 2*time.Second)
	h.submit(1)
	for i := 0; i < 100; i++ {
		if m := raw.recv(transport.KindLocalReadResp, 5*time.Second); m.Payload[0] != LocalReadOK {
			t.Fatalf("parked read %d answered %x, want OK", i, m.Payload)
		}
	}
}

// TestLocalReadsStartNoGoroutine: a thousand parked reads are a thousand
// list entries on the service loop, not a thousand goroutines.
func TestLocalReadsStartNoGoroutine(t *testing.T) {
	h := newSMRHarness(t, 0)
	h.submit(5)
	raw := newRawReader(t, h)
	before := runtime.NumGoroutine()
	raw.readAhead(2, 1000)
	if during := runtime.NumGoroutine(); during > before+10 {
		t.Fatalf("%d goroutines with 1 000 reads parked, %d before", during, before)
	}
	h.submit(1)
	for i := 0; i < 1000; i++ {
		if m := raw.recv(transport.KindLocalReadResp, 5*time.Second); m.Payload[0] != LocalReadOK {
			t.Fatalf("parked read %d answered %x, want OK", i, m.Payload)
		}
	}
}
