package cluster

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"amcast/internal/core"
	"amcast/internal/dlog"
	"amcast/internal/netem"
	"amcast/internal/store"
)

func fastRing() core.RingOptions {
	return core.RingOptions{
		RetryInterval: 30 * time.Millisecond,
		SkipEnabled:   true,
		Delta:         5 * time.Millisecond,
		Lambda:        2000,
	}
}

// TestFirstOpDoesNotWaitForRetryTick: a deployment attaches every server
// to the network before it starts any node, so no coordinator's first
// Phase 1A is lost to a peer not attached yet. The retry tick that would
// re-send it (a quarter of RetryInterval) is set far beyond the bound, so
// the first operation of a fresh dLog or store deployment returns within
// it only if no boot message was lost.
func TestFirstOpDoesNotWaitForRetryTick(t *testing.T) {
	const bound = time.Second
	ring := fastRing()
	ring.RetryInterval = 10 * time.Second

	d := NewDeployment(nil)
	defer d.Close()
	dl, err := d.StartDLog(DLogOptions{Logs: 2, Servers: 3, Global: true, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	dc, dcl, err := dl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer dcl.Close()
	start := time.Now()
	if _, err := dc.MultiAppend([]dlog.LogID{1, 2}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > bound {
		t.Errorf("dLog: the first MultiAppend took %v, want at most %v", took, bound)
	}

	sd := NewDeployment(nil)
	defer sd.Close()
	sc, err := sd.StartStore(StoreOptions{Partitions: 3, Replicas: 3, Global: true, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	cl, scl, err := sc.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer scl.Close()
	for _, g := range sc.Schema.Groups() {
		k := 0
		for sc.Schema.PartitionOf(fmt.Sprint(k)) != g {
			k++
		}
		start := time.Now()
		if err := cl.Insert(fmt.Sprint(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > bound {
			t.Errorf("store: the first Insert into partition %d took %v, want at most %v", g, took, bound)
		}
	}
}

func TestStoreEndToEnd(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{Partitions: 3, Replicas: 3, Global: true, Ring: fastRing()})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Table 1 operations end to end.
	if err := sc.Insert("alpha", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := sc.Insert("zeta", []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := sc.Read("alpha")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("read alpha = %q, %v, %v", v, ok, err)
	}
	if err := sc.Update("alpha", []byte("1b")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = sc.Read("alpha")
	if string(v) != "1b" {
		t.Fatalf("updated read = %q", v)
	}
	if _, ok, _ := sc.Read("missing"); ok {
		t.Error("read of missing key reported found")
	}
	if err := sc.Delete("zeta"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := sc.Read("zeta"); ok {
		t.Error("deleted key still readable")
	}
}

func TestStoreScanAcrossPartitions(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 3, Replicas: 3, Global: true,
		Kind: store.RangePartitioned, Ring: fastRing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Keys spread across the range partitions.
	keys := []string{"aaa", "mmm", "zzz", "bbb", "qqq", "hhh"}
	for i, k := range keys {
		if err := sc.Insert(k, []byte{byte(i)}); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
	}
	entries, err := sc.Scan("a", "zzzz")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("scan returned %d entries, want %d: %+v", len(entries), len(keys), entries)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			t.Fatal("scan results not sorted")
		}
	}
	// Narrow scan hits a subset.
	entries, err = sc.Scan("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("narrow scan = %+v", entries)
	}
}

func TestStoreIndependentRingsScan(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 3, Replicas: 3, Global: false,
		Kind: store.HashPartitioned, Ring: fastRing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 12; i++ {
		if err := sc.Insert(fmt.Sprintf("key%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := sc.Scan("key00", "key99")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Fatalf("independent-rings scan = %d entries, want 12", len(entries))
	}
}

func TestStoreConcurrentClients(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{Partitions: 2, Replicas: 3, Ring: fastRing()})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		sc, cl, err := c.NewClient(netem.SiteLocal)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(i int, sc *store.Client) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				k := fmt.Sprintf("c%d-k%d", i, j)
				if err := sc.Insert(k, []byte("v")); err != nil {
					errs <- err
					return
				}
				if _, ok, err := sc.Read(k); err != nil || !ok {
					errs <- fmt.Errorf("read own write %q: %v %v", k, ok, err)
					return
				}
			}
		}(i, sc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStoreReplicaRecoveryEndToEnd(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 1, Replicas: 3,
		CheckpointEvery: 10, RecoveryTimeout: 2 * time.Second,
		Ring: fastRing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 30; i++ {
		if err := sc.Insert(fmt.Sprintf("pre%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Crash replica 3, lose its checkpoints too (worst case: remote
	// checkpoint plus acceptor retransmission needed).
	c.Crash(1, 3)
	c.DropCheckpoints(1, 3)
	for i := 0; i < 20; i++ {
		if err := sc.Insert(fmt.Sprintf("mid%02d", i), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Restart(1, 3); err != nil {
		t.Fatal(err)
	}
	// The recovered replica converges to the full database.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if srv := c.Server(1, 3); srv != nil && srv.SM().Len() == 50 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := c.Server(1, 3).SM().Len(); got != 50 {
		t.Fatalf("recovered replica has %d entries, want 50", got)
	}
	// And the cluster still serves writes.
	if err := sc.Insert("post", []byte("z")); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGeoDeployment(t *testing.T) {
	topo := netem.EC2Topology()
	topo.SetScale(0.05) // shrink geo latencies 20x for test speed
	d := NewDeployment(topo)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 4, Replicas: 3, Global: true,
		SiteOf: func(p int) netem.Site { return netem.EC2Regions[p-1] },
		Ring: core.RingOptions{
			RetryInterval: 200 * time.Millisecond,
			SkipEnabled:   true,
			Delta:         20 * time.Millisecond,
			Lambda:        2000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.EC2Regions[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sc.Timeout = 30 * time.Second
	for i := 0; i < 5; i++ {
		if err := sc.Insert(fmt.Sprintf("geo%d", i), []byte("v")); err != nil {
			t.Fatalf("geo insert %d: %v", i, err)
		}
	}
	entries, err := sc.Scan("geo0", "geo9")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("geo scan = %d entries, want 5", len(entries))
	}
}

func TestDLogEndToEnd(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartDLog(DLogOptions{Logs: 2, Servers: 3, Global: true, Ring: fastRing()})
	if err != nil {
		t.Fatal(err)
	}
	dc, cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Table 2 operations end to end.
	p0, err := dc.Append(1, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := dc.Append(1, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p0+1 {
		t.Errorf("positions %d, %d not consecutive", p0, p1)
	}
	v, err := dc.Read(1, p0)
	if err != nil || string(v) != "first" {
		t.Fatalf("read = %q, %v", v, err)
	}

	// Multi-append hits both logs atomically.
	positions, err := dc.MultiAppend([]dlog.LogID{1, 2}, []byte("both"))
	if err != nil {
		t.Fatal(err)
	}
	if len(positions) != 2 {
		t.Fatalf("multi-append positions = %v", positions)
	}
	v, err = dc.Read(2, positions[2])
	if err != nil || string(v) != "both" {
		t.Fatalf("read log2 = %q, %v", v, err)
	}

	// Trim discards the prefix.
	if err := dc.Trim(1, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Read(1, p0); err == nil {
		t.Error("read of trimmed position succeeded")
	}
	if _, err := dc.Read(1, p1); err != nil {
		t.Errorf("read above trim failed: %v", err)
	}
}

// TestDLogMultiAppendMapsAreTheCallers: each MultiAppend returns a map of
// its own. Three kept maps each hold both logs past the previous call's
// positions, a write into one leaves the others as they were, and a client
// without a global group gets its error, not a panic.
func TestDLogMultiAppendMapsAreTheCallers(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartDLog(DLogOptions{Logs: 2, Servers: 3, Global: true, Ring: fastRing()})
	if err != nil {
		t.Fatal(err)
	}
	dc, cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	logs := []dlog.LogID{1, 2}
	var kept [3]map[dlog.LogID]uint64
	for i := range kept {
		if kept[i], err = dc.MultiAppend(logs, []byte("m")); err != nil {
			t.Fatal(err)
		}
		if len(kept[i]) != 2 {
			t.Fatalf("call %d: positions %v, want both logs", i, kept[i])
		}
		if i == 0 {
			continue
		}
		for _, l := range logs {
			if kept[i][l] <= kept[i-1][l] {
				t.Errorf("call %d: log %d at %d, not past %d", i, l, kept[i][l], kept[i-1][l])
			}
		}
	}
	want := [3]map[dlog.LogID]uint64{maps.Clone(kept[0]), maps.Clone(kept[1]), maps.Clone(kept[2])}
	kept[1][1] = 1 << 40
	kept[1][9] = 9
	for _, i := range []int{0, 2} {
		if !maps.Equal(kept[i], want[i]) {
			t.Errorf("call %d: map changed to %v by a write into call 1's, want %v", i, kept[i], want[i])
		}
	}

	dc.Global = 0
	if pos, err := dc.MultiAppend(logs, []byte("m")); err == nil || len(pos) != 0 {
		t.Errorf("without a global group: %v, %v; want an error and no positions", pos, err)
	}
}

// TestDLogMultiAppendRefusesRepeatedLog: a multi-append naming a log twice
// is refused before anything is sent, so no server appends to that log at
// all (each would append twice, and the client would then report a
// failure for an append that took effect).
func TestDLogMultiAppendRefusesRepeatedLog(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartDLog(DLogOptions{Logs: 2, Servers: 3, Global: true, Ring: fastRing()})
	if err != nil {
		t.Fatal(err)
	}
	dc, cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if pos, err := dc.MultiAppend([]dlog.LogID{1, 1}, []byte("twice")); err == nil || len(pos) != 0 {
		t.Errorf("repeated log: %v, %v; want an error and no positions", pos, err)
	}
	// A marker through the same global ring: a server that applied it has
	// applied whatever the refused call might have sent before it.
	if _, err := dc.MultiAppend([]dlog.LogID{1, 2}, []byte("marker")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s := 1; s <= 3; s++ {
		for c.SM(s).LenOf(2) < 1 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if l1, l2 := c.SM(s).LenOf(1), c.SM(s).LenOf(2); l1 != 1 || l2 != 1 {
			t.Errorf("server %d: logs 1 and 2 hold %d and %d entries, want the marker only", s, l1, l2)
		}
	}
}

func TestDLogConcurrentWritersSeeSamePositions(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartDLog(DLogOptions{Logs: 1, Servers: 3, Ring: fastRing()})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 15
	positions := make(chan uint64, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		dc, cl, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(dc *dlog.Client) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p, err := dc.Append(1, []byte("entry"))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				positions <- p
			}
		}(dc)
	}
	wg.Wait()
	close(positions)
	seen := make(map[uint64]bool)
	for p := range positions {
		if seen[p] {
			t.Fatalf("position %d assigned twice", p)
		}
		seen[p] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("got %d distinct positions, want %d", len(seen), writers*perWriter)
	}
}

func TestDLogServersConverge(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartDLog(DLogOptions{Logs: 2, Servers: 3, Global: true, Ring: fastRing()})
	if err != nil {
		t.Fatal(err)
	}
	dc, cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if _, err := dc.Append(dlog.LogID(i%2+1), []byte("e")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s := 1; s <= 3; s++ {
		for time.Now().Before(deadline) {
			if c.SM(s).LenOf(1)+c.SM(s).LenOf(2) == 20 {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if got := c.SM(s).LenOf(1) + c.SM(s).LenOf(2); got != 20 {
			t.Errorf("server %d has %d entries, want 20", s, got)
		}
	}
}

// TestClientsRideOutTransientOverload drives MRP-Store and dLog clients
// against coordinators with tiny proposal queues: every shed proposal
// comes back as an Overloaded reply and the smr client absorbs it with a
// bounded jittered backoff — no operation surfaces a hard failure, and
// the backoff counters prove the admission-control path actually ran.
func TestClientsRideOutTransientOverload(t *testing.T) {
	ring := fastRing()
	ring.MaxPending = 2
	ring.Window = 1

	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{Partitions: 1, Replicas: 3, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				key := fmt.Sprintf("ov-%d-%d", w, i)
				if err := sc.Insert(key, []byte("v")); err != nil {
					errs <- fmt.Errorf("insert %s: %w", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cl.SMR.OverloadBackoffs() == 0 {
		t.Fatal("no overload backoffs recorded; the queue was never saturated and the test proves nothing")
	}
}

// TestDLogClientRidesOutOverload is the dLog flavour: concurrent appends
// through a 2-deep coordinator queue must all succeed via backoff.
func TestDLogClientRidesOutOverload(t *testing.T) {
	ring := fastRing()
	ring.MaxPending = 2
	ring.Window = 1

	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartDLog(DLogOptions{Logs: 1, Servers: 3, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	dc, cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := dc.Append(dlog.LogID(1), []byte(fmt.Sprintf("e-%d-%d", w, i))); err != nil {
					errs <- fmt.Errorf("append %d-%d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cl.SMR.OverloadBackoffs() == 0 {
		t.Fatal("no overload backoffs recorded; the queue was never saturated")
	}
}
