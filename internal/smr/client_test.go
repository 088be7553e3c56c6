package smr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"amcast/internal/coord"
	"amcast/internal/netem"
	"amcast/internal/transport"
)

// echoNet stands in for the replicas of groups 1..n, so that a test sees
// the client alone: group g has the members g (its coordinator) and g+10,
// each a goroutine that hands every proposal it is sent to the test's
// handler and otherwise does and allocates nothing.
type echoNet struct {
	net *transport.Network
	svc *coord.Service
	trs map[transport.ProcessID]transport.Transport
}

func newEchoNet(t *testing.T, groups int, handle func(tr transport.Transport, m transport.Message, cmd Command)) *echoNet {
	t.Helper()
	e := &echoNet{net: transport.NewNetwork(nil), svc: coord.NewService(), trs: make(map[transport.ProcessID]transport.Transport)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 1; g <= groups; g++ {
		all := coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner
		ids := []transport.ProcessID{transport.ProcessID(g), transport.ProcessID(g + 10)}
		if err := e.svc.CreateRing(transport.RingID(g), []coord.Member{{ID: ids[0], Roles: all}, {ID: ids[1], Roles: all}}); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			tr := e.net.Attach(id, netem.SiteLocal)
			e.trs[id] = tr
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					case m := <-tr.Recv():
						if cmd, err := DecodeCommand(m.Value.Data); err == nil && m.Kind == transport.KindProposal {
							handle(tr, m, cmd)
						}
					}
				}
			}()
		}
	}
	t.Cleanup(func() {
		close(stop)
		wg.Wait()
		e.net.Close()
	})
	return e
}

var echoResponse = []byte("ok")

// answer replies to cmd as a replica of group ring would.
func answer(tr transport.Transport, ring transport.RingID, cmd Command) {
	_ = tr.Send(cmd.Client, transport.Message{Kind: transport.KindResponse, Ring: ring, Count: uint32(ring), Seq: cmd.Seq, Payload: echoResponse})
}

// client attaches a Coord-wired client process.
func (e *echoNet) client(t *testing.T, id transport.ProcessID) *Client {
	return attachCoordClient(t, e.net, e.svc, id)
}

// Allocation budgets of one SubmitOne → reply, counted over the whole
// process: against three replicas of one ring on the in-process Network
// (measured 0: the acceptors' MemLog records and the replicas' replies come
// out of slabs, and counterSM reuses its result slice as the services do),
// and against a responder that allocates nothing, which leaves the client's
// own share (measured 0: the command, with the op written straight into it,
// and the one copy of the response are cut from the client's 64 KB blocks —
// table entry, completion channel, timer and configuration watch are
// reused). Before the client had one event loop the same two round trips
// cost 44 and 30; with a slice around the response and a slice per log
// record, 8 and 3; with a reply of its own per replica, 4–7; with a request
// and a response copy of their own, 2 and 2.
//
// The client's share holds with a garbage collection before every call
// (measured 0; 2, a call and its channel, while calls were recycled through
// a sync.Pool, which every cycle empties), and for a Submit that gathers
// two responses into a buffer on the caller's stack (measured 0; 1 while
// Submit returned them in a slice of its own). With nothing left to the
// client's share, its budget is 0.
const (
	submitAllocBudget      = 1
	submitClientAllocShare = 0
)

func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	op := add(1)
	submit := func(cl *Client) func() {
		return func() {
			if _, err := cl.SubmitOne(1, op, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := newEchoNet(t, 2, func(tr transport.Transport, m transport.Message, cmd Command) { answer(tr, m.Ring, cmd) })
	cl := e.client(t, 21)
	alone := submit(cl)
	both := []transport.RingID{1, 2}
	gc := testing.AllocsPerRun(100, runtime.GC) // the collector's own, not the client's
	for _, tc := range []struct {
		name string
		run  func()
		less float64
	}{
		{"SubmitOne", alone, 0},
		{"SubmitOne after a GC", func() { runtime.GC(); alone() }, gc},
		{"Submit of 2 into a stack buffer", func() {
			var buf [2][]byte
			if resps, err := cl.Submit(buf[:0], both, op, both, 2, 5*time.Second); err != nil || len(resps) != 2 {
				t.Fatalf("Submit = %d responses, %v; want 2", len(resps), err)
			}
		}, 0},
	} {
		tc.run() // first use: the groups' watches, the client's first call
		share := testing.AllocsPerRun(100, tc.run) - tc.less
		t.Logf("client share: %.1f allocs per %s", share, tc.name)
		if share > submitClientAllocShare {
			t.Errorf("client share: %.1f allocs per %s, budget %d", share, tc.name, submitClientAllocShare)
		}
	}

	h := newSMRHarness(t, 0)
	full := submit(h.coordClient(t, 11))
	for i := 0; i < 50; i++ {
		full() // let queues, windows and batch buffers reach their size
	}
	total := testing.AllocsPerRun(500, full)
	t.Logf("whole path: %.1f allocs per Submit", total)
	if total > submitAllocBudget {
		t.Errorf("Submit → 3 replicas → reply: %.1f allocs, budget %d", total, submitAllocBudget)
	}
}

// TestSubmitAppendsToDst: Submit appends the responses behind what dst
// already holds and leaves that untouched; on an error — one response of
// two arrived before the deadline, no group, a closed client — it returns
// dst as it was.
func TestSubmitAppendsToDst(t *testing.T) {
	e := newEchoNet(t, 2, func(tr transport.Transport, m transport.Message, cmd Command) {
		if m.Ring == 1 || string(cmd.Op) != "only 1" {
			answer(tr, m.Ring, cmd)
		}
	})
	cl := e.client(t, 21)
	both := []transport.RingID{1, 2}
	dst := make([][]byte, 1, 4)
	dst[0] = []byte("kept")

	got, err := cl.Submit(dst, both, bytesOp([]byte("all")), both, 2, 5*time.Second)
	if err != nil || len(got) != 3 || &got[0] != &dst[0] {
		t.Fatalf("Submit = %d responses, %v; want the prefix and 2 more in dst's array", len(got), err)
	}
	if string(got[0]) != "kept" || !bytes.Equal(got[1], echoResponse) || !bytes.Equal(got[2], echoResponse) {
		t.Errorf("Submit = %q, want the prefix kept and then two responses", got)
	}

	fails := []struct {
		name   string
		submit func() ([][]byte, error)
	}{
		{"one of two responses", func() ([][]byte, error) {
			return cl.Submit(dst, both, bytesOp([]byte("only 1")), both, 2, 100*time.Millisecond)
		}},
		{"no group", func() ([][]byte, error) { return cl.Submit(dst, nil, bytesOp(nil), nil, 1, time.Second) }},
		{"closed client", func() ([][]byte, error) {
			cl.Close()
			return cl.Submit(dst, both, bytesOp(nil), both, 2, time.Second)
		}},
	}
	for _, tc := range fails {
		got, err := tc.submit()
		if err == nil || len(got) != 1 || &got[0] != &dst[0] || string(got[0]) != "kept" {
			t.Errorf("%s: Submit = %q, %v; want dst unchanged and an error", tc.name, got, err)
		}
	}
}

// arrival is one proposal as a stand-in replica saw it.
type arrival struct {
	at   transport.ProcessID
	ring transport.RingID
	cmd  Command
	when time.Time
}

// arrivals collects proposals from every stand-in replica of a test.
type arrivals struct {
	mu  sync.Mutex
	got []arrival
}

func (a *arrivals) record(tr transport.Transport, m transport.Message, cmd Command) {
	a.mu.Lock()
	a.got = append(a.got, arrival{at: tr.ID(), ring: m.Ring, cmd: cmd, when: time.Now()})
	a.mu.Unlock()
}

func (a *arrivals) snapshot() []arrival {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]arrival(nil), a.got...)
}

// waitFor polls until n proposals arrived.
func (a *arrivals) waitFor(t *testing.T, n int, within time.Duration) []arrival {
	t.Helper()
	for deadline := time.Now().Add(within); ; time.Sleep(time.Millisecond) {
		if got := a.snapshot(); len(got) >= n {
			return got
		} else if time.Now().After(deadline) {
			t.Fatalf("%d proposals arrived within %v, want %d", len(got), within, n)
		}
	}
}

// TestClientLoopReroutesOneGroup: 64 commands wait across three groups
// when group 2's coordinator changes. The client's one loop re-sends
// exactly group 2's commands, once each, to the new coordinator within the
// jitter window instead of the 7.5 s retransmission period; no goroutine,
// watch or timer exists per command; and Close leaves no watch behind.
func TestClientLoopReroutesOneGroup(t *testing.T) {
	var seen arrivals
	e := newEchoNet(t, 3, seen.record)
	cl := e.client(t, 21)
	// One command per group first, so that the watches exist.
	for g := transport.RingID(1); g <= 3; g++ {
		go func() { _, _ = cl.Submit(nil, []transport.RingID{g}, add(0), []transport.RingID{g}, 1, 30*time.Second) }()
	}
	for _, a := range seen.waitFor(t, 3, 5*time.Second) {
		answer(e.trs[a.at], a.ring, a.cmd)
	}
	for g := transport.RingID(1); g <= 3; g++ {
		if n := e.svc.Watchers(g); n != 1 {
			t.Fatalf("group %d has %d watchers after its first use, want the client's one", g, n)
		}
	}
	time.Sleep(10 * time.Millisecond) // the three callers return
	idle := runtime.NumGoroutine()

	const inflight = 64
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		g := transport.RingID(1 + i%3)
		go func() {
			_, err := cl.Submit(nil, []transport.RingID{g}, add(1), []transport.RingID{g}, 1, 30*time.Second)
			errs <- err
		}()
	}
	first := seen.waitFor(t, 3+inflight, 5*time.Second)[3:]
	if n := runtime.NumGoroutine(); n > idle+inflight {
		t.Errorf("%d goroutines with %d commands in flight, %d without: the client's count must not grow with them", n, inflight, idle)
	}
	want := map[uint64]bool{} // group 2's commands
	for _, a := range first {
		if a.at != transport.ProcessID(a.ring) {
			t.Fatalf("first send of %d went to %d, not to group %d's coordinator", a.cmd.Seq, a.at, a.ring)
		}
		if a.ring == 2 {
			want[a.cmd.Seq] = true
		}
	}

	changed := time.Now()
	e.svc.MarkDown(2) // group 2's coordinator is 12 now
	resent := seen.waitFor(t, 3+inflight+len(want), 5*time.Second)[3+inflight:]
	time.Sleep(30 * time.Millisecond) // anything sent beyond those is a bug
	if extra := seen.snapshot()[3+inflight+len(want):]; len(extra) != 0 {
		t.Errorf("%d sends beyond one per command of group 2: %+v", len(extra), extra)
	}
	for _, a := range resent {
		if a.at != 12 || a.ring != 2 || !want[a.cmd.Seq] {
			t.Errorf("re-sent %d of group %d to %d, want only group 2's, to 12", a.cmd.Seq, a.ring, a.at)
		}
		delete(want, a.cmd.Seq) // a second copy fails the check above
	}
	if took := resent[len(resent)-1].when.Sub(changed); took > time.Second { // 11 ms plus a loaded host's scheduling
		t.Errorf("re-routing took %v: driven by the retransmission timer, not by the watch (1 ms + up to 10 ms jitter)", took)
	} else {
		t.Logf("re-routed %d commands in %v", len(resent), took)
	}
	if got := cl.Retransmits(); got != uint64(len(resent)) {
		t.Errorf("Retransmits = %d, want %d", got, len(resent))
	}

	for _, a := range append(first, resent...) {
		answer(e.trs[a.at], a.ring, a.cmd)
	}
	for i := 0; i < inflight; i++ {
		if err := <-errs; err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	cl.Close()
	for g := transport.RingID(1); g <= 3; g++ {
		if n := e.svc.Watchers(g); n != 0 {
			t.Errorf("group %d still has %d watchers after Close", g, n)
		}
	}
	if _, err := cl.Submit(nil, []transport.RingID{1}, add(1), []transport.RingID{1}, 1, time.Second); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Submit after Close: %v, want ErrClientClosed", err)
	}
}

// TestClientBackoffIsPerCommand: a coordinator sheds command A with a
// retry-after hint that pushes A's next send past the retransmission
// period. Command B, waiting beside it on the same timer, must still be
// retransmitted on its own schedule.
func TestClientBackoffIsPerCommand(t *testing.T) {
	const timeout, hintMs = 4 * time.Second, 1800 // retransmission period 1 s
	var seen arrivals
	e := newEchoNet(t, 1, func(tr transport.Transport, m transport.Message, cmd Command) {
		seen.record(tr, m, cmd)
		if cmd.Op[0] == 'A' && len(seen.snapshot()) <= 2 {
			_ = tr.Send(cmd.Client, transport.Message{Kind: transport.KindOverloaded, Ring: m.Ring, Instance: hintMs, Value: transport.Value{ID: m.Value.ID}})
		}
	})
	cl := e.client(t, 21)
	start := time.Now()
	errs := make(chan error, 2)
	for _, op := range []string{"A", "B"} {
		go func() {
			_, err := cl.Submit(nil, []transport.RingID{1}, bytesOp([]byte(op)), []transport.RingID{1}, 1, timeout)
			errs <- err
		}()
	}
	var again [2]time.Duration // when A and B arrived the second time
	for n := 3; again[0] == 0 || again[1] == 0; n++ {
		a := seen.waitFor(t, n, timeout)[n-1]
		if i := a.cmd.Op[0] - 'A'; again[i] == 0 {
			again[i] = a.when.Sub(start)
			answer(e.trs[a.at], a.ring, a.cmd)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	if again[1] < timeout/4 || again[1] > timeout/4+500*time.Millisecond {
		t.Errorf("B was retransmitted after %v, want its own period of %v: A's backoff must not move it", again[1], timeout/4)
	}
	if again[0] < hintMs*time.Millisecond || again[0] > timeout/2+500*time.Millisecond {
		t.Errorf("A was re-sent after %v, want the %d ms hint plus jitter, capped at %v", again[0], hintMs, timeout/2)
	}
	if got := cl.OverloadBackoffs(); got != 1 {
		t.Errorf("OverloadBackoffs = %d, want 1", got)
	}
}

// TestResponseIsTheCallersCopy: what Submit, SubmitOne and LocalRead
// return belongs to the caller. On the in-process Network a response
// arrives as the replica's own slice — the one its duplicate window keeps
// for re-replies — so a caller that scribbles over what it got must change
// neither the replicas' state nor the reply a retransmission of the same
// command is answered with.
func TestResponseIsTheCallersCopy(t *testing.T) {
	h := newSMRHarness(t, 0)
	c := h.client
	first, err := c.SubmitOne(1, add(5), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seq, want := c.seq.Load(), bytes.Clone(first)
	clear(first)
	all, err := c.Submit(nil, []transport.RingID{1}, add(1), []transport.RingID{1}, 1, 5*time.Second)
	if err != nil || len(all) != 1 || binary.LittleEndian.Uint64(all[0]) != 6 {
		t.Fatalf("Submit after the scribble = %x, %v, want total 6", all, err)
	}
	clear(all[0])
	local, err := c.LocalRead(2, 1, bytesOp(nil), ReadIndex, 0, 5*time.Second)
	if err != nil || binary.LittleEndian.Uint64(local) != 6 {
		t.Fatalf("LocalRead = %x, %v, want total 6", local, err)
	}
	clear(local)

	// The first command again, as a retransmission whose reply was lost
	// would arrive: same client, same sequence number, a new multicast.
	c.mu.Lock()
	e := c.newCallLocked()
	c.mu.Unlock()
	e.seq, e.valueID, e.need = seq, c.node.MarkerID(), 1
	e.groups, e.accept, e.seen = append(e.groupBuf[:0], 1), append(e.acceptBuf[:0], 1), e.seenBuf[:0]
	e.payload = Command{Client: c.id, Seq: seq, Op: addOp(5)}.Encode()
	again, err := c.await(e, 5*time.Second, 4, nil)
	if err != nil || len(again) != 1 || !bytes.Equal(again[0], want) {
		t.Errorf("re-reply from the duplicate window = %x, %v, want the first reply %x", again, err, want)
	}
	if got := h.submit(0); got != 6 {
		t.Errorf("total = %d, want 6: the duplicate executed, or a scribble reached the state", got)
	}
	// Whichever replica answered first, every window still holds the reply.
	for id, r := range h.replicas {
		for deadline := time.Now().Add(5 * time.Second); r.ExecutedCount() < 3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond) // a replica that was not the first to answer catches up
		}
		r.applyGate.RLock() // deliverBatch, which owns the windows, holds it exclusively
		dup, kept := r.dedup[c.id].check(seq)
		r.applyGate.RUnlock()
		if !dup || !bytes.Equal(kept, want) {
			t.Errorf("replica %d's window holds %x (executed=%v) for the first command, want %x", id, kept, dup, want)
		}
	}
}

// TestSubmitRejectsWhatCannotComplete: a call with no group to multicast
// to, or that needs more responses than accept has partitions, gets no
// countable response however long it waits. It fails at once with an error
// that says so, sends nothing, and is not mistaken for message loss.
func TestSubmitRejectsWhatCannotComplete(t *testing.T) {
	var seen arrivals
	e := newEchoNet(t, 2, seen.record)
	cl := e.client(t, 21)
	for _, tc := range []struct {
		name           string
		groups, accept []transport.RingID
		need           int
	}{
		{"no group", nil, nil, 1},
		{"no group, empty accept", []transport.RingID{}, []transport.RingID{}, 0},
		{"need beyond accept", []transport.RingID{1, 2}, []transport.RingID{1, 2}, 3},
		{"empty accept", []transport.RingID{1}, []transport.RingID{}, 0},
	} {
		start := time.Now()
		_, err := cl.Submit(nil, tc.groups, add(1), tc.accept, tc.need, 5*time.Second)
		if took := time.Since(start); err == nil || errors.Is(err, ErrTimeout) || took > time.Second {
			t.Errorf("%s: Submit = %v after %v, want a descriptive error at once", tc.name, err, took)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
	time.Sleep(20 * time.Millisecond) // anything sent would have arrived
	if got := seen.snapshot(); len(got) != 0 {
		t.Errorf("%d proposals sent for calls that cannot complete", len(got))
	}
}

// TestClientBuffersNeverChange: the client cuts each request, and its copy
// of each response, from blocks it only ever cuts forward, while several
// callers submit at once. A request a stand-in replica kept — the client's
// own bytes, on a Network that hands slices over by reference — still
// decodes to what was sent after 3 000 later submits, and 1 000 responses
// kept by their callers stay byte-identical, each capped at its own length.
func TestClientBuffersNeverChange(t *testing.T) {
	type kept struct{ got, want []byte }
	var mu sync.Mutex
	var requests []kept
	e := newEchoNet(t, 1, func(tr transport.Transport, m transport.Message, cmd Command) {
		mu.Lock()
		requests = append(requests, kept{m.Value.Data, bytes.Clone(m.Value.Data)})
		mu.Unlock()
		// The op echoed back, so that every response is different.
		_ = tr.Send(cmd.Client, transport.Message{Kind: transport.KindResponse, Ring: m.Ring, Count: uint32(m.Ring), Seq: cmd.Seq, Payload: cmd.Op})
	})
	cl := e.client(t, 21)
	const callers = 4
	submitAll := func(n int, prefix string) [][]kept {
		out := make([][]kept, callers)
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/callers; i++ {
					op := fmt.Appendf(nil, "%s %d %d %s", prefix, w, i, bytes.Repeat([]byte{'x'}, i%97))
					resp, err := cl.SubmitOne(1, bytesOp(op), 10*time.Second)
					if err != nil {
						t.Errorf("%s %d/%d: %v", prefix, w, i, err)
						return
					}
					out[w] = append(out[w], kept{resp, op})
				}
			}()
		}
		wg.Wait()
		return out
	}

	first := submitAll(1000, "kept")
	mu.Lock()
	firstRequests := requests[:len(requests):len(requests)]
	mu.Unlock()
	if t.Failed() || len(firstRequests) != 1000 {
		t.Fatalf("%d requests arrived for 1 000 submits", len(firstRequests))
	}
	submitAll(3000, "later")

	for _, r := range firstRequests {
		cmd, err := DecodeCommand(r.got)
		if err != nil || cmd.Client != 21 || !bytes.HasPrefix(cmd.Op, []byte("kept ")) || !bytes.Equal(r.got, r.want) {
			t.Fatalf("a kept request now decodes to %+v, %v; sent as %q", cmd, err, r.want)
		}
	}
	for _, rs := range first {
		for _, r := range rs {
			if !bytes.Equal(r.got, r.want) || cap(r.got) != len(r.got) {
				t.Fatalf("a kept response reads %q (cap %d), want %q with cap %d", r.got, cap(r.got), r.want, len(r.want))
			}
		}
	}
}
