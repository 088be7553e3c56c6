package ring

import (
	"fmt"
	"testing"
	"time"

	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// TestWALFailureBudgetStepOut: an acceptor whose WAL fails persistently
// must stop silently wedging the ring and step out (self MarkDown) once its
// commit-failure budget is spent, letting the surviving quorum continue;
// when the disk recovers it must rejoin on its own.
func TestWALFailureBudgetStepOut(t *testing.T) {
	sim := storage.NewSimDisk(storage.NewMemLog(), storage.SSDSpec(), false, 0.0001)
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.RetryInterval = 20 * time.Millisecond
		cfg.CommitFailureBudget = 5
		if cfg.Self == 2 {
			cfg.Log = sim
		}
	})

	// Warm up: everything healthy.
	if err := c.nodes[1].Propose([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.nodes[1], 1, 5*time.Second)
	collect(t, c.nodes[3], 1, 5*time.Second)

	// The device fills up. Keep proposing so commit attempts burn the
	// budget; the surviving quorum {1,3} must keep deciding throughout.
	sim.SetWriteError(storage.ErrDiskFull)
	stopLoad := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			_ = c.nodes[1].Propose([]byte(fmt.Sprintf("v%d", i)))
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer close(stopLoad)

	deadline := time.Now().Add(10 * time.Second)
	for {
		cfg, _ := c.svc.Ring(c.ring)
		if cfg.Down[2] {
			break
		}
		if time.Now().After(deadline) {
			fails, stepped, lastErr := c.nodes[2].WALHealth()
			t.Fatalf("node 2 never stepped out (failures=%d steppedOut=%v lastErr=%q)", fails, stepped, lastErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fails, stepped, lastErr := c.nodes[2].WALHealth()
	if !stepped || fails < 5 || lastErr == "" {
		t.Fatalf("WALHealth after step-out: failures=%d steppedOut=%v lastErr=%q", fails, stepped, lastErr)
	}

	// Liveness on the surviving quorum: fresh proposals still decide.
	if err := c.nodes[3].Propose([]byte("after-stepout")); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range collect(t, c.nodes[3], 50, 10*time.Second) {
		if string(d.Value.Data) == "after-stepout" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("proposal after step-out was not delivered on surviving quorum")
	}

	// Disk recovers: the retained batch commits on a retry tick and the
	// node rejoins without any oracle.
	sim.SetWriteError(nil)
	deadline = time.Now().Add(10 * time.Second)
	for {
		cfg, _ := c.svc.Ring(c.ring)
		if !cfg.Down[2] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 2 never rejoined after the disk recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, stepped, _ := c.nodes[2].WALHealth(); stepped {
		t.Fatal("steppedOut flag should clear after rejoin")
	}
}

// TestSteppedOutCoordinatorRoutesProposalsAway: a coordinator that spent
// its commit-failure budget steps out, and its process's own proposals then
// go to the new coordinator while its log still fails: the configuration
// change reaches Propose's routing at once, though the Paxos state applies
// it only once the retained batch commits.
func TestSteppedOutCoordinatorRoutesProposalsAway(t *testing.T) {
	sim := storage.NewSimDisk(storage.NewMemLog(), storage.SSDSpec(), false, 0.0001)
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.RetryInterval = 20 * time.Millisecond
		cfg.CommitFailureBudget = 3
		if cfg.Self == 1 {
			cfg.Log = sim
		}
	})
	if err := c.nodes[1].Propose([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.nodes[3], 1, 5*time.Second)

	sim.SetWriteError(storage.ErrDiskFull)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		cfg, _ := c.svc.Ring(c.ring)
		if cfg.Down[1] && cfg.Coordinator != 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator 1 never stepped out: %+v", cfg)
		}
		_ = c.nodes[1].Propose([]byte(fmt.Sprintf("burn%d", i)))
		time.Sleep(5 * time.Millisecond)
	}
	// Node 1's loop takes the change from its watch within an iteration.
	deadline = time.Now().Add(5 * time.Second)
	for {
		c.nodes[1].mu.Lock()
		routed := c.nodes[1].rc.Coordinator != 1
		c.nodes[1].mu.Unlock()
		if routed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 1 still routes proposals to itself")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.nodes[1].Propose([]byte("after-stepout")); err != nil {
		t.Fatal(err)
	}
	timeout := time.After(10 * time.Second)
	for {
		select {
		case d := <-deliveries(c.nodes[3]):
			if string(d.Value.Data) == "after-stepout" {
				return
			}
		case <-timeout:
			t.Fatal("node 1's proposal after its step-out was not delivered on the surviving quorum")
		}
	}
}

// collectUnpacked drains deliveries from a learner until it has seen count
// application values, unpacking message-packed instances, and returns the
// value ids with the instance each was decided in.
func collectUnpacked(t *testing.T, n *Node, count int, timeout time.Duration) (ids, instances []uint64) {
	t.Helper()
	deadline := time.After(timeout)
	for len(ids) < count {
		select {
		case d, ok := <-deliveries(n):
			if !ok {
				t.Fatalf("delivery channel closed after %d/%d values", len(ids), count)
			}
			switch {
			case d.Value.Skip:
			case d.Value.Batched:
				batch, err := transport.DecodeBatch(d.Value.Data)
				if err != nil {
					t.Fatalf("instance %d: corrupt packet: %v", d.Instance, err)
				}
				for _, iv := range batch {
					ids = append(ids, iv.Value.ID)
					instances = append(instances, d.Instance)
				}
			default:
				ids = append(ids, d.Value.ID)
				instances = append(instances, d.Instance)
			}
		case <-deadline:
			t.Fatalf("timed out after %d/%d values", len(ids), count)
		}
	}
	return ids, instances
}

// TestPackedBurstSurvivesCoordinatorWALFailure checks agreement and
// validity for packed values (Section 2) across a wedge: the coordinator's
// log rejects the burst that carries a packed vote, so nothing of it may
// be decided anywhere; once the log recovers, every learner delivers every
// message of the burst exactly once, in queue order, in the same instances.
func TestPackedBurstSurvivesCoordinatorWALFailure(t *testing.T) {
	fl := newFailLog(storage.NewMemLog())
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.BatchBytes = 32 << 10
		cfg.RetryInterval = 20 * time.Millisecond
		cfg.CommitFailureBudget = 1 << 30 // never spent: stay in the ring while wedged
		if cfg.Self == 1 {
			cfg.Log = fl
		}
	})
	if err := c.nodes[1].Propose([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	for id := transport.ProcessID(1); id <= 3; id++ {
		collect(t, c.nodes[id], 1, 5*time.Second)
	}

	fl.fail()
	const count = 64
	client := c.net.Attach(99, netem.SiteLocal).(transport.BatchSender)
	burst := make([]transport.Message, count)
	for i := range burst {
		burst[i] = transport.Message{
			Kind: transport.KindProposal, To: 1, Ring: c.ring, Seq: 99,
			Value: transport.Value{ID: transport.MakeValueID(99, uint32(i+1)), Count: 1, Data: []byte{byte(i)}},
		}
	}
	if err := client.SendBatch(burst); err != nil {
		t.Fatal(err)
	}
	// Several retry rounds re-stage the vote against the failing log; no
	// learner may see any of it.
	select {
	case d := <-deliveries(c.nodes[2]):
		t.Fatalf("instance %d delivered while the coordinator's vote was un-durable", d.Instance)
	case <-time.After(200 * time.Millisecond):
	}
	if len(fl.rejectedInstances()) == 0 {
		t.Fatal("failure injection never rejected a vote")
	}

	fl.heal()
	var firstInstances []uint64
	for id := transport.ProcessID(1); id <= 3; id++ {
		ids, instances := collectUnpacked(t, c.nodes[id], count, 10*time.Second)
		for i, got := range ids {
			if want := transport.MakeValueID(99, uint32(i+1)); got != want {
				t.Fatalf("learner %d: value %d is %#x, want %#x (queue order, exactly once)", id, i, got, want)
			}
		}
		if instances[count-1]-instances[0]+1 >= count/4 {
			t.Errorf("learner %d: burst spread over instances %d..%d; packing did not engage", id, instances[0], instances[count-1])
		}
		if id == 1 {
			firstInstances = instances
			continue
		}
		for i := range instances {
			if instances[i] != firstInstances[i] {
				t.Fatalf("learner %d decided value %d in instance %d, learner 1 in %d", id, i, instances[i], firstInstances[i])
			}
		}
	}
	// Retries of an already decided packet must not deliver it again.
	for id := transport.ProcessID(1); id <= 3; id++ {
		select {
		case d := <-deliveries(c.nodes[id]):
			if !d.Value.Skip {
				t.Fatalf("learner %d: instance %d delivered after the burst was complete", id, d.Instance)
			}
		case <-time.After(60 * time.Millisecond):
		}
	}
}
