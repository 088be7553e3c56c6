package coord

import (
	"testing"
	"time"

	"amcast/internal/netem"
	"amcast/internal/transport"
)

func pal(ids ...transport.ProcessID) []Member {
	var out []Member
	for _, id := range ids {
		out = append(out, Member{ID: id, Roles: RoleProposer | RoleAcceptor | RoleLearner})
	}
	return out
}

func TestSuspicionQuorumArbitration(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, pal(1, 2, 3)); err != nil {
		t.Fatal(err)
	}

	// One accuser of three members is not a majority of the monitors {2,3}.
	s.Suspect(2, 1)
	if cfg, _ := s.Ring(1); cfg.Down[1] {
		t.Fatal("single report must not mark a process down")
	}
	// Second accuser completes the quorum.
	s.Suspect(3, 1)
	cfg, _ := s.Ring(1)
	if !cfg.Down[1] {
		t.Fatal("majority suspicion should mark the target down")
	}
	if cfg.Coordinator != 2 {
		t.Fatalf("coordinator should fail over to 2, got %d", cfg.Coordinator)
	}

	// Withdrawing all reports auto-reverts a detector-driven mark.
	s.Unsuspect(2, 1)
	s.Unsuspect(3, 1)
	cfg, _ = s.Ring(1)
	if cfg.Down[1] {
		t.Fatal("withdrawn suspicion should mark the target up again")
	}
	if cfg.Coordinator != 1 {
		t.Fatalf("coordinator should revert to 1, got %d", cfg.Coordinator)
	}
}

func TestSuspicionManualMarksSticky(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, pal(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// A manual MarkDown (e.g. a node stepping out over a wedged WAL) must
	// not be reverted by the absence of suspicion reports.
	s.MarkDown(1)
	s.Suspect(2, 1)
	s.Unsuspect(2, 1)
	if cfg, _ := s.Ring(1); !cfg.Down[1] {
		t.Fatal("manual mark must survive suspicion churn")
	}
	s.MarkUp(1)
	if cfg, _ := s.Ring(1); cfg.Down[1] {
		t.Fatal("MarkUp should clear the manual mark")
	}
}

func TestSuspicionStaleAccuserCannotPin(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, pal(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// 2 and 3 take 1 down; then 3 goes down too, leaving its stale report.
	s.Suspect(2, 1)
	s.Suspect(3, 1)
	s.Suspect(1, 3) // stale report from the dead 1; ignored (1 is down)
	s.Suspect(2, 3)
	cfg, _ := s.Ring(1)
	if !cfg.Down[1] || !cfg.Down[3] {
		t.Fatalf("both 1 and 3 should be down: %v", cfg.Down)
	}
	// 1 recovers; only the live monitor 2 matters for auto-up.
	s.Unsuspect(2, 1)
	cfg, _ = s.Ring(1)
	if cfg.Down[1] {
		t.Fatal("stale report from down observer 3 must not pin 1 down")
	}
}

// detProc is one detector-equipped process in an end-to-end test.
type detProc struct {
	id  transport.ProcessID
	tr  transport.Transport
	rt  *transport.Router
	det *Detector
}

func startDet(net *transport.Network, svc *Service, id transport.ProcessID, opts DetectorOptions) *detProc {
	tr := net.Attach(id, netem.SiteLocal)
	rt := transport.NewRouter(tr)
	det := NewDetector(id, svc, tr, rt.Heartbeats(), opts)
	return &detProc{id: id, tr: tr, rt: rt, det: det}
}

func waitDown(t *testing.T, svc *Service, ring transport.RingID, id transport.ProcessID, want bool, d time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		cfg, _ := svc.Ring(ring)
		if cfg.Down[id] == want {
			return time.Since(start)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("process %d did not reach down=%v within %v", id, want, d)
	return 0
}

func TestDetectorEndToEndCrashAndRejoin(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := NewService()
	if err := svc.CreateRing(1, pal(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	opts := DetectorOptions{
		Interval:   10 * time.Millisecond,
		minTimeout: 80 * time.Millisecond,
		maxTimeout: 500 * time.Millisecond,
	}
	procs := make(map[transport.ProcessID]*detProc)
	for _, id := range []transport.ProcessID{1, 2, 3} {
		procs[id] = startDet(net, svc, id, opts)
	}
	defer func() {
		for _, p := range procs {
			p.det.Stop()
		}
	}()

	// Let the estimators warm up; nobody should be suspected.
	time.Sleep(300 * time.Millisecond)
	if cfg, _ := svc.Ring(1); len(cfg.Down) != 0 {
		t.Fatalf("false positives during steady state: %v", cfg.Down)
	}

	// Hard-crash the coordinator: no MarkDown anywhere, the survivors'
	// detectors must agree on their own. Its detector keeps running —
	// a crashed process's stale accusations must not take survivors out.
	net.Detach(1)
	el := waitDown(t, svc, 1, 1, true, 3*time.Second)
	t.Logf("detection latency: %v", el)
	cfg, _ := svc.Ring(1)
	if cfg.Coordinator != 2 {
		t.Fatalf("want failover to 2, got %d", cfg.Coordinator)
	}
	if cfg.Down[2] || cfg.Down[3] {
		t.Fatalf("survivors wrongly down: %v", cfg.Down)
	}

	// Restart process 1 with no MarkUp: resumed heartbeats must clear the
	// suspicion (hysteresis) and auto-rejoin it.
	procs[1].det.Stop()
	procs[1] = startDet(net, svc, 1, opts)
	waitDown(t, svc, 1, 1, false, 3*time.Second)
	cfg, _ = svc.Ring(1)
	if cfg.Coordinator != 1 {
		t.Fatalf("want coordinator back to 1 after rejoin, got %d", cfg.Coordinator)
	}
}

func TestDetectorAsymmetricCutNoQuorumNoEviction(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := NewService()
	if err := svc.CreateRing(1, pal(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	opts := DetectorOptions{
		Interval:   10 * time.Millisecond,
		minTimeout: 80 * time.Millisecond,
		maxTimeout: 400 * time.Millisecond,
	}
	var procs []*detProc
	for _, id := range []transport.ProcessID{1, 2, 3} {
		procs = append(procs, startDet(net, svc, id, opts))
	}
	defer func() {
		for _, p := range procs {
			p.det.Stop()
		}
	}()

	// Sever only the 1↔2 links: each of 1 and 2 suspects the other, but
	// neither accusation reaches a majority of monitors (3 hears both).
	net.Faults().CutBoth(1, 2)
	time.Sleep(600 * time.Millisecond)
	if cfg, _ := svc.Ring(1); len(cfg.Down) != 0 {
		t.Fatalf("partial cut must not evict anyone: %v", cfg.Down)
	}
	// Heal; the pairwise suspicion drains without membership churn.
	net.Faults().HealAll()
	time.Sleep(300 * time.Millisecond)
	if cfg, _ := svc.Ring(1); len(cfg.Down) != 0 {
		t.Fatalf("membership churned after heal: %v", cfg.Down)
	}
}
