package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/store"
)

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
