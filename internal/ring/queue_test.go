package ring

import (
	"testing"

	"amcast/internal/transport"
)

func TestProposalQueueFIFOAcrossGrowth(t *testing.T) {
	var q proposalQueue
	// Interleave pushes and pops so the head wraps while the buffer
	// grows; FIFO order must survive.
	next, want := uint64(0), uint64(0)
	for round := 0; round < 20; round++ {
		for i := 0; i < 37; i++ {
			next++
			q.push(transport.Value{ID: next})
		}
		for i := 0; i < 23; i++ {
			want++
			if got := q.pop(); got.ID != want {
				t.Fatalf("pop = %d, want %d", got.ID, want)
			}
		}
	}
	if q.len() != int(next-want) {
		t.Fatalf("len = %d, want %d", q.len(), next-want)
	}
	for q.len() > 0 {
		want++
		if got := q.pop(); got.ID != want {
			t.Fatalf("drain pop = %d, want %d", got.ID, want)
		}
	}
}

// TestProposalQueueAtMatchesPop: the indexed peek names exactly the
// values the next pops return, across a wrapped head.
func TestProposalQueueAtMatchesPop(t *testing.T) {
	var q proposalQueue
	for i := uint64(1); i <= 60; i++ { // wrap the head of the 64-slot buffer
		q.push(transport.Value{ID: i})
		q.pop()
	}
	for i := uint64(1); i <= 10; i++ {
		q.push(transport.Value{ID: 100 + i, Data: []byte{byte(i)}})
	}
	for i := 0; i < q.len(); i++ {
		if p := q.at(i); p.ID != 101+uint64(i) || p.Data[0] != byte(i+1) {
			t.Fatalf("at(%d) = %+v", i, p)
		}
	}
	for want := uint64(101); q.len() > 0; want++ {
		if p := q.at(0); p.ID != want {
			t.Fatalf("at(0) = %d, want %d", p.ID, want)
		}
		if v := q.pop(); v.ID != want {
			t.Fatalf("pop = %d, want %d", v.ID, want)
		}
	}
}
