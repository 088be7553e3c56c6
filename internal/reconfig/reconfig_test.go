package reconfig_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/coord"
	"amcast/internal/netem"
	"amcast/internal/reconfig"
	"amcast/internal/store"
	"amcast/internal/transport"
)

const splitKey = "k0250"

func key(i int) string { return fmt.Sprintf("k%04d", i) }

// waitConverged polls until every listed replica SM serializes to
// identical bytes (same keys, same values — bounds included).
func waitConverged(t *testing.T, sms []*store.SM, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snaps := make([][]byte, len(sms))
		for i, sm := range sms {
			snaps[i] = sm.Snapshot()
		}
		equal := true
		for i := 1; i < len(snaps); i++ {
			if !bytes.Equal(snaps[0], snaps[i]) {
				equal = false
				break
			}
		}
		if equal {
			return
		}
		if time.Now().After(deadline) {
			for i, sm := range sms {
				t.Logf("replica %d: %d entries", i, sm.Len())
			}
			t.Fatal("replica states did not converge")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLiveScaleOutSplit runs the acceptance scenario: a live partition
// split under sustained client load with no lost, duplicated or
// reordered writes; the delivery stall is the O(log n) tree split, and a
// killed replica of the new partition recovers the post-split
// subscription from its checkpoint.
func TestLiveScaleOutSplit(t *testing.T) {
	d := cluster.NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(cluster.StoreOptions{
		Partitions:      1,
		Replicas:        3,
		Kind:            store.RangePartitioned,
		CheckpointEvery: 500,
		RecoveryTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Preload both halves of the key space through consensus.
	const preload = 400
	var ops []store.Op
	for i := 0; i < preload; i++ {
		ops = append(ops, store.Op{Kind: store.OpInsert, Key: key(i), Value: []byte("init")})
	}
	for base := 0; base < len(ops); base += 100 {
		if _, err := sc.Batch(1, ops[base:base+100]); err != nil {
			t.Fatal(err)
		}
	}

	// A client that loaded the pre-split schema: the stale-schema
	// regression — it must transparently refresh and retry when its ops
	// land on the shrunken partition.
	staleSC, staleCl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer staleCl.Close()
	if v := staleSC.Schema().Version; v != 1 {
		t.Fatalf("pre-split schema version = %d, want 1", v)
	}

	// Sustained load across the whole key space while the split runs.
	// Each worker owns a disjoint key set and writes strictly increasing
	// values, remembering the last acknowledged one per key: any lost,
	// duplicated (stale re-execution) or reordered delivery shows up as
	// a final value differing from the last ack.
	const workers = 3
	type ackmap map[string]string
	acked := make([]ackmap, workers)
	var wErrs [workers]error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = make(ackmap)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				// Disjoint per-worker key sets: worker w owns indices
				// ≡ w (mod workers), so each key has a single writer
				// and "last acknowledged value" is unambiguous.
				k := key((seq%(preload/workers))*workers + w)
				v := fmt.Sprintf("w%d-%06d", w, seq)
				if err := sc.Update(k, []byte(v)); err != nil {
					wErrs[w] = fmt.Errorf("update %s: %w", k, err)
					return
				}
				acked[w][k] = v
			}
		}(w)
	}
	// An insert worker creates fresh keys on both sides of the split
	// point while the handoff is in flight.
	var inserted atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("k%04d-new%04d", (i*211)%500, i)
			if err := sc.Insert(k, []byte("fresh")); err != nil {
				wErrs[0] = fmt.Errorf("insert %s: %w", k, err)
				return
			}
			inserted.Add(1)
		}
	}()

	time.Sleep(100 * time.Millisecond) // load running against v1

	// The live split: new ring, marker through the old group, chunked
	// range transfer, seeded boot, schema flip — all without stopping
	// the workers.
	if err := c.AddPartition(2, 2); err != nil {
		t.Fatal(err)
	}
	ctrl, cleanup, err := c.NewReconfigController()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res, err := ctrl.Split(reconfig.SplitSpec{
		OldGroup:    1,
		NewGroup:    2,
		Key:         splitKey,
		OldReplicas: []transport.ProcessID{cluster.ReplicaID(1, 1), cluster.ReplicaID(1, 2), cluster.ReplicaID(1, 3)},
	}, func(res *reconfig.SplitResult) error {
		if err := c.SeedPartition(2, res.Seed); err != nil {
			return err
		}
		return c.StartPartition(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedKeys == 0 {
		t.Error("split moved no keys")
	}
	if res.Schema.Version != 2 {
		t.Errorf("post-split schema version = %d, want 2", res.Schema.Version)
	}
	if got := ctrl.Metrics.MigratedKeys.Load(); got != uint64(res.MovedKeys) {
		t.Errorf("migrated-keys counter = %d, want %d", got, res.MovedKeys)
	}
	if ctrl.Metrics.SchemaEpoch.Load() != 2 {
		t.Errorf("schema-epoch gauge = %d, want 2", ctrl.Metrics.SchemaEpoch.Load())
	}

	// The stale client writes to a moved key: it must refresh and land
	// the write on the new owner.
	if err := staleSC.Update(key(preload-1), []byte("stale-client-write")); err != nil {
		t.Fatalf("stale client update after split: %v", err)
	}
	if v := staleSC.Schema().Version; v != 2 {
		t.Errorf("stale client schema after retry = v%d, want v2", v)
	}

	time.Sleep(150 * time.Millisecond) // load running against v2
	close(stop)
	wg.Wait()
	for w, err := range wErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Quiesce, then verify: every partition's replicas converge, and the
	// final value of every key is exactly the last acknowledged write.
	waitConverged(t, []*store.SM{c.Server(1, 1).SM(), c.Server(1, 2).SM(), c.Server(1, 3).SM()}, 5*time.Second)
	waitConverged(t, []*store.SM{c.Server(2, 1).SM(), c.Server(2, 2).SM(), c.Server(2, 3).SM()}, 5*time.Second)

	checkSC, checkCl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer checkCl.Close()
	final := make(map[string]string)
	for w := workers - 1; w >= 0; w-- {
		for k, v := range acked[w] {
			if cur, ok := final[k]; !ok || v > cur {
				final[k] = v
			}
		}
	}
	// Workers own disjoint keys, so per-key the last ack is unambiguous.
	mismatches := 0
	for k, want := range final {
		got, ok, err := checkSC.Read(k)
		if err != nil {
			t.Fatalf("read %s: %v", k, err)
		}
		if !ok {
			t.Errorf("acked key %s lost", k)
			mismatches++
		} else if string(got) != want && string(got) != "stale-client-write" {
			t.Errorf("key %s = %q, want last ack %q", k, got, want)
			mismatches++
		}
		if mismatches > 5 {
			t.Fatal("too many mismatches")
		}
	}

	// Ownership actually moved: the old partition holds only keys below
	// the split point, the new one only keys at or above it.
	if _, hi, ok := c.Server(1, 1).SM().OwnedRange(); !ok || hi != splitKey {
		t.Errorf("old partition owned hi = %q, %v; want %q", hi, ok, splitKey)
	}
	if lo, _, ok := c.Server(2, 1).SM().OwnedRange(); !ok || lo != splitKey {
		t.Errorf("new partition owned lo = %q, %v; want %q", lo, ok, splitKey)
	}
	total := c.Server(1, 1).SM().Len() + c.Server(2, 1).SM().Len()
	if want := preload + int(inserted.Load()) + 0; total != want {
		t.Errorf("total keys across partitions = %d, want %d", total, want)
	}

	// The delivery stall is the O(log n) tree split — microseconds, not
	// proportional to the 150+ moved keys' serialization.
	for r := 1; r <= 3; r++ {
		if stall := c.Server(1, r).SM().SplitStallMax(); stall > 50*time.Millisecond {
			t.Errorf("replica %d split stall = %v, want bounded", r, stall)
		}
	}

	// Kill a new-partition replica and bring it back: the checkpoint's
	// cursor carries the post-split subscription.
	c.Crash(2, 2)
	if err := c.Restart(2, 2); err != nil {
		t.Fatal(err)
	}
	rep := c.Server(2, 2).Replica()
	if subs := rep.Subscription(); len(subs) != 1 || subs[0] != 2 {
		t.Errorf("recovered subscription = %v, want [2]", subs)
	}
	// And it keeps executing: a write through the new group reaches it.
	if err := checkSC.Update(key(preload-1), []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*store.SM{c.Server(2, 1).SM(), c.Server(2, 2).SM(), c.Server(2, 3).SM()}, 5*time.Second)
}

// TestInPlaceSplitResubscribes verifies the epoch-transition path: the
// old replicas themselves take over the new ring (no data moves), the
// merge switches subscription at the marker on every replica, the
// transition is checkpointed, and a killed replica recovers the
// post-split {old, new} subscription.
func TestInPlaceSplitResubscribes(t *testing.T) {
	d := cluster.NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(cluster.StoreOptions{
		Partitions:      1,
		Replicas:        3,
		Kind:            store.RangePartitioned,
		RecoveryTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 100; i++ {
		if err := sc.Insert(key(i*5), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// The new ring is hosted by the same replicas.
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
	res, err := ctrl.Split(reconfig.SplitSpec{
		OldGroup:    1,
		NewGroup:    2,
		Key:         splitKey,
		InPlace:     true,
		OldReplicas: old,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedKeys != 0 {
		t.Errorf("in-place split moved %d keys", res.MovedKeys)
	}

	// Writes to both sides now ride different rings but execute on the
	// same replicas, merged identically everywhere.
	for i := 0; i < 40; i++ {
		if err := sc.Update(key((i%50)*5), []byte(fmt.Sprintf("lo%02d", i))); err != nil {
			t.Fatal(err)
		}
		if err := sc.Update(key((50+i%50)*5), []byte(fmt.Sprintf("hi%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for r := 1; r <= 3; r++ {
			rep := c.Server(1, r).Replica()
			if subs := rep.Subscription(); len(subs) != 2 || subs[0] != 1 || subs[1] != 2 {
				done = false
			}
			if rep.Epoch() != 1 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for r := 1; r <= 3; r++ {
				rep := c.Server(1, r).Replica()
				t.Logf("replica %d: subs=%v epoch=%d", r, rep.Subscription(), rep.Epoch())
			}
			t.Fatal("replicas did not all apply the epoch transition")
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitConverged(t, []*store.SM{c.Server(1, 1).SM(), c.Server(1, 2).SM(), c.Server(1, 3).SM()}, 5*time.Second)

	// Kill one replica; its recovery (local checkpoint or a peer's
	// higher-epoch tuple) must restore the {1, 2} subscription.
	c.Crash(1, 3)
	if err := c.Restart(1, 3); err != nil {
		t.Fatal(err)
	}
	rep := c.Server(1, 3).Replica()
	if subs := rep.Subscription(); len(subs) != 2 || subs[0] != 1 || subs[1] != 2 {
		t.Fatalf("recovered subscription = %v, want [1 2]", subs)
	}
	// It still executes traffic from both rings.
	if err := sc.Update(key(5), []byte("post-lo")); err != nil {
		t.Fatal(err)
	}
	if err := sc.Update(key(400), []byte("post-hi")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*store.SM{c.Server(1, 1).SM(), c.Server(1, 2).SM(), c.Server(1, 3).SM()}, 5*time.Second)
}

// TestLocalReadsRideThroughSplit: read-index local reads from a client that
// loaded the pre-split schema, while a split runs. Once the marker has
// executed, a replica of the shrunken partition answers a moved key
// StatusWrongPartition — read in place from the reply, like everything the
// client decodes now — and the client must poll for the new schema and
// retry against the new owner: every read returns its key's value, none an
// error; one issued between the marker and the schema flip is still waiting
// when the new partition boots, and completes against it.
func TestLocalReadsRideThroughSplit(t *testing.T) {
	d := cluster.NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(cluster.StoreOptions{
		Partitions: 1, Replicas: 3, Kind: store.RangePartitioned,
		CheckpointEvery: 500, RecoveryTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const preload = 400
	var ops []store.Op
	for i := 0; i < preload; i++ {
		ops = append(ops, store.Op{Kind: store.OpInsert, Key: key(i), Value: []byte("v-" + key(i))})
	}
	for base := 0; base < len(ops); base += 100 {
		if _, err := sc.Batch(1, ops[base:base+100]); err != nil {
			t.Fatal(err)
		}
	}
	readLocal := func(k string) error {
		if v, ok, err := sc.ReadLocal(k); err != nil || !ok || string(v) != "v-"+k {
			return fmt.Errorf("local read of %s = %q, %v, %v", k, v, ok, err)
		}
		return nil
	}

	// Background reads over the whole key space, through all of it.
	var bgErr error
	stop, bgDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(bgDone)
		for i := 0; bgErr == nil; i++ {
			select {
			case <-stop:
				return
			default:
			}
			bgErr = readLocal(key((i * 37) % preload))
		}
	}()

	if err := c.AddPartition(2, 2); err != nil {
		t.Fatal(err)
	}
	ctrl, cleanup, err := c.NewReconfigController()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	movedKey := key(preload - 1)
	midSplit := make(chan error, 1)
	if _, err := ctrl.Split(reconfig.SplitSpec{
		OldGroup: 1, NewGroup: 2, Key: splitKey,
		OldReplicas: []transport.ProcessID{cluster.ReplicaID(1, 1), cluster.ReplicaID(1, 2), cluster.ReplicaID(1, 3)},
	}, func(res *reconfig.SplitResult) error {
		// The marker has executed, the schema has not flipped: the old
		// partition refuses the moved key, and nobody serves it yet.
		raw, _ := c.Server(1, 1).SM().ReadLocal(1, store.Op{Kind: store.OpRead, Key: movedKey}.Encode())
		if got, err := store.DecodeResult(raw); err != nil || got.Status != store.StatusWrongPartition {
			return fmt.Errorf("old partition answers %+v, %v for a moved key, want wrong-partition", got, err)
		}
		go func() { midSplit <- readLocal(movedKey) }()
		select {
		case err := <-midSplit:
			return fmt.Errorf("a local read of a moved key returned (%v) before any partition could serve it", err)
		case <-time.After(30 * time.Millisecond):
		}
		if err := c.SeedPartition(2, res.Seed); err != nil {
			return err
		}
		return c.StartPartition(2)
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-midSplit:
		if err != nil {
			t.Errorf("the read that met StatusWrongPartition: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("the read that met StatusWrongPartition never completed after the schema flip")
	}
	close(stop)
	<-bgDone
	if bgErr != nil {
		t.Error(bgErr)
	}
	if v := sc.Schema().Version; v != 2 {
		t.Errorf("client schema after the split = v%d, want v2", v)
	}
	var served uint64
	for r := 1; r <= 3; r++ {
		served += c.Server(2, r).Replica().LocalReads()
	}
	if served == 0 {
		t.Error("no replica of the new partition served a local read")
	}
}
