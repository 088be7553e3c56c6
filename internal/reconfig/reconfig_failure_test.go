package reconfig_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/reconfig"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// TestSplitSurvivesCoordinatorCrashMidMarker crosses reconfiguration
// with a crash fault at the nastiest point of an in-place split: after
// every replica acked the prepare (the epoch transition is armed) but
// before the marker decides. The ring links are slowed so the marker
// consensus is still in flight when the coordinator is killed — with no
// MarkDown oracle; the failure detectors must notice, the ring must
// re-elect, and the armed split must then either complete (the
// re-routed marker decides) or abort cleanly (schema unflipped, a retry
// succeeds). Acked writes survive in every outcome.
func TestSplitSurvivesCoordinatorCrashMidMarker(t *testing.T) {
	d := cluster.NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(cluster.StoreOptions{
		Partitions:      1,
		Replicas:        3,
		Kind:            store.RangePartitioned,
		RecoveryTimeout: 2 * time.Second,
		Detector:        &coord.DetectorOptions{Interval: 20 * time.Millisecond},
		RetainLogs:      true,
		// An in-place split leaves the replicas merging two rings; rate
		// leveling keeps the quieter ring from stalling the merge.
		Ring: core.RingOptions{SkipEnabled: true, Delta: time.Millisecond, Lambda: 20000, RetryInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Preload keys on both sides of the split point (splitKey = k0250).
	const preload = 100
	for i := 0; i < preload; i++ {
		if err := sc.Insert(key(i*5), []byte("init")); err != nil {
			t.Fatal(err)
		}
	}

	// Writers with disjoint keys and strictly increasing values: the
	// last ack per key is a promise. Faults make op errors legitimate
	// (the crash window), so workers tolerate them — but anything acked
	// must survive, and nothing beyond the last issued value may appear.
	const workers = 2
	acked := make([]map[string]string, workers)
	issued := make([]map[string]string, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = make(map[string]string)
		issued[w] = make(map[string]string)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsc, wcl, err := c.NewClient(netem.SiteLocal)
			if err != nil {
				t.Errorf("worker %d client: %v", w, err)
				return
			}
			defer wcl.Close()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(((seq%(preload/workers))*workers + w) * 5)
				v := fmt.Sprintf("w%d-%06d", w, seq)
				issued[w][k] = v
				if err := wsc.Update(k, []byte(v)); err != nil {
					continue
				}
				acked[w][k] = v
			}
		}(w)
	}

	// In-place split: the new ring is hosted by the same replicas.
	old := []transport.ProcessID{cluster.ReplicaID(1, 1), cluster.ReplicaID(1, 2), cluster.ReplicaID(1, 3)}
	var members []coord.Member
	for _, id := range old {
		members = append(members, coord.Member{ID: id, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner})
	}
	if err := d.Svc.CreateRing(2, members); err != nil {
		t.Fatal(err)
	}
	ctrl, cleanup, err := c.NewReconfigController()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	// Slow only the replica↔replica links: prepare RPCs (controller ↔
	// replicas) stay fast, the marker's ring consensus crawls — so the
	// kill below reliably lands between prepare-ack and marker decision.
	faults := d.Net.Faults()
	slow := netem.LinkFault{Delay: 15 * time.Millisecond}
	for i, a := range old {
		for _, b := range old[i+1:] {
			faults.SetLinkBoth(uint32(a), uint32(b), slow)
		}
	}

	spec := reconfig.SplitSpec{
		OldGroup:    1,
		NewGroup:    2,
		Key:         splitKey,
		InPlace:     true,
		OldReplicas: old,
	}
	type splitRes struct {
		res *reconfig.SplitResult
		err error
	}
	done := make(chan splitRes, 1)
	go func() {
		res, err := ctrl.Split(spec, nil)
		done <- splitRes{res, err}
	}()

	// Prepare completes within a few ms; the marker needs several slowed
	// ring hops. Kill the coordinator inside that window — quietly.
	time.Sleep(30 * time.Millisecond)
	cfg, _ := d.Svc.Ring(1)
	victim := cfg.Coordinator
	if victim == 0 {
		t.Fatal("no coordinator to kill")
	}
	c.Kill(int(victim)/100, int(victim)%100)

	first := <-done
	completed := first.err == nil
	if completed {
		if first.res.Schema.Version != 2 {
			t.Fatalf("split completed with schema v%d, want v2", first.res.Schema.Version)
		}
		t.Logf("split completed through the failover (marker re-routed)")
	} else {
		// Clean abort: the schema must not have half-flipped, and once
		// the detectors finish the failover a retry must succeed.
		t.Logf("split aborted: %v", first.err)
		if v := sc.Schema().Version; v != 1 {
			t.Fatalf("aborted split left schema v%d, want v1", v)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			if cfg, _ := d.Svc.Ring(1); cfg.Down[victim] && cfg.Coordinator != 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("detectors never completed the failover")
			}
			time.Sleep(5 * time.Millisecond)
		}
		res, err := ctrl.Split(spec, nil)
		if err != nil {
			t.Fatalf("retry split after failover: %v", err)
		}
		if res.Schema.Version != 2 {
			t.Fatalf("retried split gave schema v%d, want v2", res.Schema.Version)
		}
	}

	// Load keeps running briefly against the post-split schema.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The crashed coordinator returns — quietly; the detectors re-admit
	// it and recovery restores the {1,2} subscription.
	faults.HealAll()
	if err := c.RestartQuiet(int(victim)/100, int(victim)%100); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if cfg, _ := d.Svc.Ring(1); !cfg.Down[victim] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted coordinator was never re-admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitSubscribed(t, c, []transport.RingID{1, 2}, 10*time.Second)
	waitConverged(t, []*store.SM{c.Server(1, 1).SM(), c.Server(1, 2).SM(), c.Server(1, 3).SM()}, 10*time.Second)

	// Safety: for every key, acked ≤ final ≤ issued (single writer per
	// key, monotonic values): no acked write lost, no spurious value.
	checkSC, checkCl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer checkCl.Close()
	for w := 0; w < workers; w++ {
		for k, want := range acked[w] {
			got, ok, err := checkSC.Read(k)
			if err != nil {
				t.Fatalf("final read %s: %v", k, err)
			}
			if !ok || string(got) < want {
				t.Errorf("acked write lost: key %s final %q < acked %q", k, got, want)
			}
			if hi := issued[w][k]; string(got) > hi {
				t.Errorf("key %s final %q beyond last issued %q", k, got, hi)
			}
		}
	}
}

// waitSubscribed polls until every running replica of partition 1
// subscribes exactly to the given rings at epoch ≥ 1.
func waitSubscribed(t *testing.T, c *cluster.StoreCluster, want []transport.RingID, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for r := 1; r <= 3; r++ {
			srv := c.Server(1, r)
			if srv == nil {
				continue
			}
			subs := srv.Replica().CoreNode().Subscription()
			if len(subs) != len(want) {
				ok = false
				break
			}
			for i := range want {
				if subs[i] != want[i] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for r := 1; r <= 3; r++ {
				if srv := c.Server(1, r); srv != nil {
					t.Logf("replica %d subs=%v", r, srv.Replica().CoreNode().Subscription())
				}
			}
			t.Fatal("replicas never converged on the post-split subscription")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
