package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"amcast/internal/core"
	"amcast/internal/dlog"
	"amcast/internal/netem"
	"amcast/internal/smr"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// Allocation budgets of one MRP-Store operation, counted over the whole
// process in steady state — store client, smr client, ring, three
// in-process replicas and the reply — with 1 KB values: each is what was
// measured, plus one.
//
//   - Read (measured 0): the command, with the op encoded straight into
//     it, and the client's one copy of the first reply are cut from the
//     client's 64 KB blocks. Each replica cuts its reply from a 64 KB block.
//   - Update (measured 0): the command and the client's copy of the reply,
//     a shared status encoding, cut the same way. Each replica overwrites
//     the stored value in place: no checkpoint captured it since it was
//     written (6 when every replica copied every value).
//   - ReadLocal (measured 0): the request — mode, the observed vector and
//     the op — and the client's copy, cut from the client's blocks. The
//     serving replica answers on its service loop, with no goroutine, and
//     cuts the reply from a block the loop owns.
//
// The acceptors' log records come out of slabs (3/64 per operation). The
// same three cost 2 each with a request and a response copy of their own,
// 6, 3 and 6 with an encoded op copied into the command, a reply of its own
// per replica and a goroutine per local read, and 23, 13 and 23 when every
// layer decoded into structures of its own.
const (
	readAllocBudget      = 1
	updateAllocBudget    = 1
	readLocalAllocBudget = 1
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
//   - Append (measured 0): the command, with the op encoded straight into
//     it, and the client's one copy of the response, which it reads the
//     position from in place, are cut from the client's 64 KB blocks. Each
//     server cuts its stored entry from a 64 KB block and its reply from a
//     4 KB block, and reuses its batch's result slice.
//   - MultiAppend (measured 0): the positions map the call returns (a map
//     header and its one group) is made by the inlined MultiAppend in this
//     frame, which does not keep it, so both live on its stack; multiAppend
//     fills it straight from the reply. Submit appends the response into a
//     buffer on multiAppend's stack.
//
// MultiAppend cost 2 while it made the map in a frame of its own (a call
// that could not be inlined, MultiAppendN), so the map escaped to the heap,
// and 3 while Submit returned the response in a slice of its own. Append
// cost 2 and MultiAppend 5 with a request and a response copy of their own,
// 3 and 6 while the op was encoded into a buffer of its own and copied into
// the command, and 10–11 and 18–21 when each server allocated every stored
// copy and reply, and the client decoded the reply into a Result.
const (
	appendAllocBudget      = 1
	multiAppendAllocBudget = 1
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

// TestStoreReplyFromBlockNeverChanges: a replica cuts its read replies from
// blocks it only ever cuts forward, and keeps each in its duplicate window.
// So a retransmitted read is answered with the bytes of its first reply,
// even after thousands of later reads were cut from the blocks behind it
// and the key was overwritten; and the first replies themselves — the
// replicas' own slices, on a Network that hands them over by reference —
// never change.
func TestStoreReplyFromBlockNeverChanges(t *testing.T) {
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
	const key = "the key"
	if err := sc.Insert(key, []byte("the value at the first read")); err != nil {
		t.Fatal(err)
	}

	// A bare process sends the read as a command, so that it can send the
	// very same command again, as a client whose reply was lost does.
	id, router := d.NewRawProcess(netem.SiteLocal)
	node, err := core.New(core.Config{Self: id, Router: router, Coord: d.Svc})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	group := sc.Schema().PartitionOf(key)
	cmd := smr.Command{Client: id, Seq: 1, Op: store.Op{Kind: store.OpRead, Key: key}.Encode()}.Encode()
	ask := func() (replies [][]byte) {
		t.Helper()
		if err := node.Multicast(group, cmd); err != nil {
			t.Fatal(err)
		}
		timeout := time.After(5 * time.Second)
		for len(replies) < 3 {
			select {
			case <-router.Service().Ready():
				got, _ := router.Service().Take(nil, 64)
				for _, m := range got {
					if m.Kind == transport.KindResponse && m.Seq == 1 {
						replies = append(replies, m.Payload)
					}
				}
			case <-timeout:
				t.Fatalf("%d of 3 replicas answered the read", len(replies))
			}
		}
		return replies
	}
	first := ask()
	want := bytes.Clone(first[0])
	if got, err := store.DecodeResult(want); err != nil || len(got.Entries) != 1 || string(got.Entries[0].Value) != "the value at the first read" {
		t.Fatalf("first read = %+v, %v", got, err)
	}

	value := make([]byte, 1000)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key%03d", i%100)
		switch {
		case i < 100:
			err = sc.Insert(k, value)
		case i%3 == 0:
			clear(value)
			value[0] = byte(i)
			err = sc.Update(k, value)
		default:
			_, _, err = sc.Read(k)
		}
		if err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
	}
	if err := sc.Update(key, []byte("a later value")); err != nil {
		t.Fatal(err)
	}

	for r, got := range ask() {
		if !bytes.Equal(got, want) {
			t.Errorf("duplicate answered by reply %d = %q, want the first reply %q", r, got, want)
		}
	}
	for r, got := range first {
		if !bytes.Equal(got, want) {
			t.Errorf("first reply %d now reads %q, want %q: its block was rewritten", r, got, want)
		}
	}
}
