package dlog

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// TestSlabAliasing: entries and replies cut from shared blocks are each
// capped at their own length, so appending to one reallocates instead of
// writing into the next, and nothing written is ever rewritten: a reply
// kept from the first batch reads the same after a hundred more.
func TestSlabAliasing(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	// Large enough to keep an allocation of its own, as a read of it does.
	big := bytes.Repeat([]byte{'b'}, entrySlab/4+100)
	junk := []byte("junk")
	// appendJunk appends to b, as whoever holds b may.
	appendJunk := func(b []byte) {
		t.Helper()
		if grown := append(b, junk...); !bytes.Equal(grown[len(b):], junk) {
			t.Fatalf("append to %q lost its tail", b)
		}
	}
	want := map[LogID][][]byte{}
	checkEntries := func(sm *SM, when string) {
		t.Helper()
		for l, ls := range sm.hosted {
			for i, e := range ls.entries {
				if cap(e) != len(e) {
					t.Fatalf("%s: log %d entry %d has cap %d > len %d", when, l, i, cap(e), len(e))
				}
				appendJunk(e)
			}
			for i, e := range ls.entries {
				if !bytes.Equal(e, want[l][i]) {
					t.Fatalf("%s: log %d entry %d = %.20q after appending to entries, want %.20q", when, l, i, e, want[l][i])
				}
			}
		}
	}
	var first, firstSaved, prev [][]byte
	for k := 0; k <= 100; k++ {
		small := []byte(fmt.Sprintf("entry %d", k))
		ops := [][]byte{
			Op{Kind: OpAppend, Log: 1, Value: small}.Encode(),
			Op{Kind: OpMultiAppend, Logs: []LogID{1, 2}, Value: small}.Encode(),
			Op{Kind: OpAppend, Log: 2, Value: big}.Encode(),
			Op{Kind: OpRead, Log: 1, Pos: uint64(2 * k)}.Encode(),
			Op{Kind: OpRead, Log: 2, Pos: uint64(2*k + 1)}.Encode(),
		}
		want[1] = append(want[1], small, small)
		want[2] = append(want[2], small, big)
		replies := slices.Clone(sm.ExecuteBatch(nil, ops))
		saved := make([][]byte, len(replies))
		for i, r := range replies {
			saved[i] = bytes.Clone(r)
			if cap(r) != len(r) {
				t.Fatalf("batch %d reply %d has cap %d > len %d", k, i, cap(r), len(r))
			}
		}
		for _, r := range slices.Concat(prev, replies) {
			appendJunk(r)
		}
		for _, i := range []int{3, 4} {
			res, err := parseResult(replies[i])
			if err != nil || res.Status != StatusOK {
				t.Fatalf("batch %d read %d = %+v, %v", k, i, res, err)
			}
			appendJunk(res.Value)
		}
		for i := range replies {
			if !bytes.Equal(replies[i], saved[i]) {
				t.Fatalf("batch %d reply %d = %x after appending to replies, want %x", k, i, replies[i], saved[i])
			}
		}
		checkEntries(sm, fmt.Sprintf("batch %d", k))
		if k == 0 {
			first, firstSaved = replies, saved
		}
		prev = replies
	}
	for i := range first {
		if !bytes.Equal(first[i], firstSaved[i]) {
			t.Errorf("reply %d of the first batch = %x a hundred batches later, want %x", i, first[i], firstSaved[i])
		}
	}

	// A restored state's entries are cut the same way.
	restored := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	if err := restored.Restore(snapshot(sm)); err != nil {
		t.Fatal(err)
	}
	checkEntries(restored, "restored")
}
