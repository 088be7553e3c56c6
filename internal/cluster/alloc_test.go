package cluster

import (
	"bytes"
	"testing"
	"time"

	"amcast/internal/dlog"
	"amcast/internal/netem"
	"amcast/internal/store"
)

// Allocation budgets of one MRP-Store operation, counted over the whole
// process in steady state — store client, smr client, ring, three
// in-process replicas and the reply — with 1 KB values: each is what was
// measured, plus one.
//
//   - Read (measured 6): the encoded op, the command around it, one
//     exactly-sized reply per replica and the client's one copy of the
//     first.
//   - Update (measured 3): op, command and the client's copy of the reply,
//     a shared status encoding. Each replica overwrites the stored value
//     in place: no checkpoint captured it since it was written (6 when
//     every replica copied every value).
//   - ReadLocal (measured 6): the op, the one-buffer request, the serving
//     replica's goroutine (two), its reply written behind the status byte,
//     and the client's copy.
//
// The acceptors' log records come out of slabs (3/64 per operation). The
// same three cost 23, 13 and 23 when every layer decoded into structures of
// its own.
const (
	readAllocBudget      = 7
	updateAllocBudget    = 4
	readLocalAllocBudget = 7
)

func TestStoreOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{Partitions: 1, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const key = "user0000000000000004321"
	value := make([]byte, 1000)
	if err := sc.Insert(key, value); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"Read", readAllocBudget, func() error { _, _, err := sc.Read(key); return err }},
		{"Update", updateAllocBudget, func() error { return sc.Update(key, value) }},
		{"ReadLocal", readLocalAllocBudget, func() error { _, _, err := sc.ReadLocal(key); return err }},
	} {
		run := func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			run() // let queues, windows and batch buffers reach their size
		}
		got := testing.AllocsPerRun(500, run)
		t.Logf("%s: %.1f allocs", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// Allocation budgets of one dLog operation, counted the same way — two
// logs and a global ring, three servers that host both, 1 KB values —
// each what was measured, plus one.
//
//   - Append (measured 3): the encoded op, the command around it and the
//     client's one copy of the response, which it reads the position from
//     in place. Each server cuts its stored entry from a 64 KB block and
//     its reply from a 4 KB block, and reuses its batch's result slice.
//   - MultiAppend (measured 6): the same three, the slice smr.Client.Submit
//     returns the response in, and the positions map the call returns (a
//     map header and its one group), filled straight from the reply.
//
// Append cost 10–11 and MultiAppend 18–21 when each server allocated every
// stored copy and reply, and the client decoded the reply into a Result.
const (
	appendAllocBudget      = 4
	multiAppendAllocBudget = 7
)

func TestDLogOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
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
	value := make([]byte, 1000)
	logs := []dlog.LogID{1, 2}
	for _, tc := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"Append", appendAllocBudget, func() error { _, err := dc.Append(1, value); return err }},
		{"MultiAppend", multiAppendAllocBudget, func() error { _, err := dc.MultiAppend(logs, value); return err }},
	} {
		run := func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			run() // let queues, windows and batch buffers reach their size
		}
		got := testing.AllocsPerRun(500, run)
		t.Logf("%s: %.1f allocs", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// TestStoreReadValueIsTheCallersCopy: the slice Read and ReadLocal return
// is a view of the client's own copy of the response. A caller that
// scribbles over it reaches neither a replica's tree nor the replies the
// replicas keep for retransmissions, on a Network that hands slices over by
// reference.
func TestStoreReadValueIsTheCallersCopy(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{Partitions: 1, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want := []byte("the value as written")
	if err := sc.Insert("k", want); err != nil {
		t.Fatal(err)
	}
	reads := map[string]func(string) ([]byte, bool, error){"Read": sc.Read, "ReadLocal": sc.ReadLocal}
	for round := 0; round < 3; round++ {
		for name, read := range reads {
			v, ok, err := read("k")
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("round %d: %s = %q, %v, %v; want %q", round, name, v, ok, err, want)
			}
			if cap(v) != len(v) {
				t.Errorf("%s returned cap %d > len %d: an append would write into the response behind the value", name, cap(v), len(v))
			}
			clear(v)
		}
	}
	var sms []*store.SM
	for r := 1; r <= 3; r++ {
		sms = append(sms, c.Server(1, r).SM())
	}
	deadline := time.Now().Add(5 * time.Second)
	for sms[1].Len() == 0 || sms[2].Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replicas did not apply the insert")
		}
		time.Sleep(time.Millisecond)
	}
	for r, sm := range sms {
		got, _ := store.DecodeResult(sm.Execute(1, store.Op{Kind: store.OpRead, Key: "k"}.Encode()))
		if len(got.Entries) != 1 || !bytes.Equal(got.Entries[0].Value, want) {
			t.Errorf("replica %d holds %+v after the caller scribbled over its reads, want %q", r+1, got, want)
		}
	}
}
