package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/store"
)

// TestParallelReplicasStayByteIdentical runs a mixed cluster — replica 1
// of each partition applies sequentially, the others with a 4-worker
// parallel applier — under concurrent YCSB-A-ish traffic (updates,
// inserts, deletes, scans, batches) while a background goroutine forces
// checkpoints mid-stream. After quiescing, every replica of a partition
// must hold byte-identical state: parallel apply may not diverge from
// sequential, not even transiently at checkpoint boundaries.
func TestParallelReplicasStayByteIdentical(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 2, Replicas: 3, Global: true, Ring: fastRing(),
		ExecWorkersOf: func(p, r int) int {
			if r == 1 {
				return 0 // sequential reference replica
			}
			return 4
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for !stop.Load() {
			for p := 1; p <= 2; p++ {
				for r := 1; r <= 3; r++ {
					c.Server(p, r).Replica().ForceCheckpoint()
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		sc, cl, err := c.NewClient(netem.SiteLocal)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(w int, sc *store.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("eq%03d", rng.Intn(60))
				var err error
				switch rng.Intn(10) {
				case 0:
					err = sc.Delete(k)
					if err != nil {
						err = nil // deleting an absent key fails by status, not transport
					}
				case 1:
					_, err = sc.Scan("eq000", "eq999")
				default:
					// Insert, or update what is there — and again if another
					// worker deleted the key between the two.
					v := []byte(fmt.Sprintf("w%d-%d", w, i))
					for attempt := 0; attempt < 4; attempt++ {
						if err = sc.Insert(k, v); err == nil {
							break
						}
						if err = sc.Update(k, v); err == nil {
							break
						}
					}
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w, sc)
	}
	wg.Wait()
	stop.Store(true)
	ckptWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Wait for every replica of each partition to converge on the
	// sequential replica's exact state bytes.
	for p := 1; p <= 2; p++ {
		want := func() []byte { return c.Server(p, 1).SM().Snapshot() }
		for r := 2; r <= 3; r++ {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if bytes.Equal(want(), c.Server(p, r).SM().Snapshot()) {
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
			if !bytes.Equal(want(), c.Server(p, r).SM().Snapshot()) {
				t.Fatalf("partition %d replica %d state diverged from sequential replica", p, r)
			}
		}
	}
	// Sanity: the parallel appliers actually ran.
	ap := c.Server(1, 2).Replica().Applier()
	if ap == nil {
		t.Fatal("replica 2 has no applier despite ExecWorkersOf")
	}
	if c.Server(1, 1).Replica().Applier() != nil {
		t.Fatal("sequential replica unexpectedly built an applier")
	}
}

// TestStoreLocalReads covers the read-index client path end to end:
// read-your-writes across rotating replicas, local scans, and the
// bounded-staleness mode staying fresh under rate-leveling skips.
func TestStoreLocalReads(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{Partitions: 2, Replicas: 3, Global: true, Ring: fastRing()})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 8; i++ {
		if err := sc.Insert(fmt.Sprintf("lr%02d", i), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	// Session read-your-writes: every local read after an update must see
	// that update, even though reads rotate over replicas that may not
	// have applied it yet (the read-index wait is what makes this hold).
	for i := 1; i <= 30; i++ {
		want := []byte(fmt.Sprintf("v%d", i))
		if err := sc.Update("lr00", want); err != nil {
			t.Fatal(err)
		}
		v, ok, err := sc.ReadLocal("lr00")
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("iteration %d: local read = %q, %v, %v; want %q", i, v, ok, err, want)
		}
	}
	if _, ok, err := sc.ReadLocal("lr-missing"); err != nil || ok {
		t.Fatalf("local read of missing key = %v, %v", ok, err)
	}

	entries, err := sc.ScanLocal("lr00", "lr99")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("local scan = %d entries, want 8", len(entries))
	}

	// With rate-leveling skips on (fastRing sets λ), every replica keeps
	// proving progress, so bounded-staleness reads succeed.
	if _, ok, err := sc.ReadStale("lr01", 5*time.Second); err != nil || !ok {
		t.Fatalf("bounded-stale read = %v, %v", ok, err)
	}

	// Local reads were actually served locally.
	var served uint64
	for p := 1; p <= 2; p++ {
		for r := 1; r <= 3; r++ {
			served += c.Server(p, r).Replica().LocalReads()
		}
	}
	if served == 0 {
		t.Fatal("no replica counted a local read")
	}
}

// TestStoreReadStaleRefusesIdleReplica: without rate-leveling skips an
// idle partition stops proving progress, so a tight bound must surface
// ErrStale instead of old data.
func TestStoreReadStaleRefusesIdleReplica(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 1, Replicas: 3,
		Ring: core.RingOptions{RetryInterval: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := sc.Insert("idle", []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if _, _, err := sc.ReadStale("idle", 20*time.Millisecond); !errors.Is(err, store.ErrStale) {
		t.Fatalf("idle bounded-stale read: err = %v, want ErrStale", err)
	}
	if v, ok, err := sc.ReadStale("idle", time.Hour); err != nil || !ok || string(v) != "v" {
		t.Fatalf("generous bound = %q, %v, %v", v, ok, err)
	}
}
