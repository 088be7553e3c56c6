package store

import (
	"testing"

	"amcast/internal/coord"
	"amcast/internal/transport"
)

// TestPickReplica: a local read's target rotates over the partition's
// alive learners, and choosing it copies no configuration — it runs once
// per read, on 95 % of a YCSB-B workload's operations.
func TestPickReplica(t *testing.T) {
	svc := coord.NewService()
	all := coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner
	if err := svc.CreateRing(1, []coord.Member{{ID: 1, Roles: all}, {ID: 2, Roles: all}, {ID: 3, Roles: all}}); err != nil {
		t.Fatal(err)
	}
	c := &Client{svc: svc}
	svc.MarkDown(2)
	seen := map[transport.ProcessID]int{}
	for i := 0; i < 100; i++ {
		id, ok := c.pickReplica(1)
		if !ok {
			t.Fatal("no replica picked with two alive")
		}
		seen[id]++
	}
	if seen[1] != 50 || seen[3] != 50 || seen[2] != 0 {
		t.Errorf("picks = %v, want 50 each for the alive replicas 1 and 3", seen)
	}
	if _, ok := c.pickReplica(9); ok {
		t.Error("picked a replica of an unknown group")
	}
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	if got := testing.AllocsPerRun(1000, func() { c.pickReplica(1) }); got != 0 {
		t.Errorf("pickReplica: %.1f allocs, want 0", got)
	}
}
