package smr

import (
	"encoding/binary"
	"testing"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/transport"
)

// coordClient builds a second client wired with the coordination service,
// so submissions ride out coordinator failover.
func (h *smrHarness) coordClient(t *testing.T, id transport.ProcessID) *Client {
	return attachCoordClient(t, h.net, h.svc, id)
}

// attachCoordClient attaches client process id to net, wired with svc and
// closed with the test (unless the test closes it first).
func attachCoordClient(t *testing.T, net *transport.Network, svc *coord.Service, id transport.ProcessID) *Client {
	t.Helper()
	tr := net.Attach(id, netem.SiteLocal)
	router := transport.NewRouter(tr)
	node, err := core.New(core.Config{Self: id, Router: router, Coord: svc})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{Self: id, Node: node, Transport: tr, Service: router.Service(), Coord: svc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		node.Stop()
	})
	return cl
}

// TestClientReroutesOnReelection: a proposal in flight to a crashed
// coordinator must be re-routed to the newly elected one as soon as the
// configuration changes — well before the retry-timer backstop (timeout/4)
// would fire.
func TestClientReroutesOnReelection(t *testing.T) {
	h := newSMRHarness(t, 0)
	cl := h.coordClient(t, 11)

	// Warm up through the original coordinator (replica 1).
	if _, err := cl.Submit(nil, []transport.RingID{1}, add(1), []transport.RingID{1}, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash the coordinator process without telling anyone.
	h.net.Detach(1)
	h.replicas[1].Stop()

	type result struct {
		total uint64
		err   error
	}
	done := make(chan result, 1)
	const timeout = 30 * time.Second // retry backstop at 7.5s: re-route must beat it
	go func() {
		resps, err := cl.Submit(nil, []transport.RingID{1}, add(2), []transport.RingID{1}, 1, timeout)
		if err != nil {
			done <- result{0, err}
			return
		}
		done <- result{binary.LittleEndian.Uint64(resps[0]), nil}
	}()

	// Let the proposal go to the dead coordinator, then "detect" the crash.
	time.Sleep(300 * time.Millisecond)
	reelected := time.Now()
	h.svc.MarkDown(1)

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("submit during failover: %v", r.err)
		}
		if el := time.Since(reelected); el > 3*time.Second {
			t.Fatalf("re-route took %v, want watch-driven (< 3s, not the 7.5s retry backstop)", el)
		}
		if r.total != 3 {
			t.Fatalf("total = %d, want 3", r.total)
		}
	case <-time.After(timeout + time.Second):
		t.Fatal("submit never completed after re-election")
	}
}

// TestClientToleratesNoCoordinatorWindow: while no coordinator exists at
// all, a Coord-wired client must wait instead of surfacing
// ErrNoCoordinator, and complete once one is elected.
func TestClientToleratesNoCoordinatorWindow(t *testing.T) {
	h := newSMRHarness(t, 0)
	cl := h.coordClient(t, 11)

	if _, err := cl.Submit(nil, []transport.RingID{1}, add(1), []transport.RingID{1}, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Take every acceptor out: Coordinator becomes 0.
	for _, id := range replicaIDs() {
		h.svc.MarkDown(id)
	}
	if cfg, _ := h.svc.Ring(1); cfg.Coordinator != 0 {
		t.Fatalf("want no coordinator, got %d", cfg.Coordinator)
	}

	done := make(chan error, 1)
	go func() {
		_, err := cl.Submit(nil, []transport.RingID{1}, add(2), []transport.RingID{1}, 1, 30*time.Second)
		done <- err
	}()

	// The old behaviour failed here instantly with ErrNoCoordinator.
	select {
	case err := <-done:
		t.Fatalf("submit gave up during the no-coordinator window: %v", err)
	case <-time.After(300 * time.Millisecond):
	}

	// Restore a quorum; the watcher should re-send promptly.
	h.svc.MarkUp(2)
	h.svc.MarkUp(3)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit after re-election: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submit never completed after the quorum returned")
	}
}
