package coord

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"amcast/internal/transport"
)

func threeAcceptorRing() []Member {
	return []Member{
		{ID: 1, Roles: RoleProposer | RoleAcceptor | RoleLearner},
		{ID: 2, Roles: RoleAcceptor},
		{ID: 3, Roles: RoleAcceptor | RoleLearner},
	}
}

func TestCreateRingAndElection(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	cfg, ok := s.Ring(1)
	if !ok {
		t.Fatal("ring 1 missing")
	}
	if cfg.Coordinator != 1 {
		t.Errorf("coordinator = %d, want 1 (first acceptor)", cfg.Coordinator)
	}
	if cfg.Majority() != 2 {
		t.Errorf("majority = %d, want 2", cfg.Majority())
	}
	if cfg.Version != 1 {
		t.Errorf("version = %d, want 1", cfg.Version)
	}
}

func TestCreateRingValidation(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRing(1, threeAcceptorRing()); err == nil {
		t.Error("duplicate ring creation should fail")
	}
	if err := s.CreateRing(2, []Member{{ID: 1, Roles: RoleLearner}}); err == nil {
		t.Error("ring without acceptors should fail")
	}
	if err := s.CreateRing(3, []Member{{ID: 1, Roles: RoleAcceptor}, {ID: 1, Roles: RoleLearner}}); err == nil {
		t.Error("duplicate member should fail")
	}
}

func TestSuccessorSkipsDown(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	cfg, _ := s.Ring(1)
	if succ, ok := cfg.Successor(1); !ok || succ != 2 {
		t.Errorf("Successor(1) = %d, %v; want 2", succ, ok)
	}
	if succ, ok := cfg.Successor(3); !ok || succ != 1 {
		t.Errorf("Successor(3) = %d, %v; want 1 (wraps)", succ, ok)
	}

	s.MarkDown(2)
	cfg, _ = s.Ring(1)
	if succ, ok := cfg.Successor(1); !ok || succ != 3 {
		t.Errorf("Successor(1) with 2 down = %d, %v; want 3", succ, ok)
	}
}

func TestCoordinatorFailover(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	s.MarkDown(1)
	cfg, _ := s.Ring(1)
	if cfg.Coordinator != 2 {
		t.Errorf("after coordinator crash, coordinator = %d, want 2", cfg.Coordinator)
	}
	if cfg.Version != 2 {
		t.Errorf("version = %d, want 2", cfg.Version)
	}
	// Still quorum over FULL acceptor set.
	if cfg.Majority() != 2 {
		t.Errorf("majority = %d, want 2", cfg.Majority())
	}

	s.MarkUp(1)
	cfg, _ = s.Ring(1)
	if cfg.Coordinator != 1 {
		t.Errorf("after recovery, coordinator = %d, want 1", cfg.Coordinator)
	}
	if !cfg.Alive(1) {
		t.Error("recovered process should be alive")
	}
}

func TestMarkDownIdempotent(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	s.MarkDown(2)
	cfg1, _ := s.Ring(1)
	s.MarkDown(2) // repeat: no version bump
	cfg2, _ := s.Ring(1)
	if cfg1.Version != cfg2.Version {
		t.Errorf("idempotent MarkDown bumped version %d -> %d", cfg1.Version, cfg2.Version)
	}
	s.MarkDown(99) // non-member: no effect
	cfg3, _ := s.Ring(1)
	if cfg3.Version != cfg2.Version {
		t.Error("MarkDown of non-member changed config")
	}
}

func TestWatchDeliversUpdates(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	ch, cancel := s.Watch(1)
	defer cancel()

	// Immediate snapshot.
	select {
	case cfg := <-ch:
		if cfg.Version != 1 {
			t.Errorf("initial version = %d, want 1", cfg.Version)
		}
	case <-time.After(time.Second):
		t.Fatal("no initial config")
	}

	s.MarkDown(1)
	select {
	case cfg := <-ch:
		if cfg.Coordinator != 2 {
			t.Errorf("watched coordinator = %d, want 2", cfg.Coordinator)
		}
	case <-time.After(time.Second):
		t.Fatal("no update after MarkDown")
	}

	cancel()
	s.MarkDown(2)
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("cancelled watcher still receives updates")
		}
	case <-time.After(50 * time.Millisecond):
		// Expected: nothing delivered.
	}
}

func TestWatchOverflowKeepsNewest(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(1, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	ch, cancel := s.Watch(1)
	defer cancel()
	// Generate more updates than the channel buffers without reading.
	for i := 0; i < 50; i++ {
		s.MarkDown(2)
		s.MarkUp(2)
	}
	var last RingConfig
	for {
		select {
		case cfg := <-ch:
			last = cfg
			continue
		default:
		}
		break
	}
	if last.Version == 0 {
		t.Fatal("no config received")
	}
	cfg, _ := s.Ring(1)
	if last.Version != cfg.Version {
		t.Errorf("newest watched version = %d, want %d", last.Version, cfg.Version)
	}
}

func TestRolesAndAccessors(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(7, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	cfg, _ := s.Ring(7)
	if got := cfg.Roles(1); !got.Has(RoleProposer | RoleAcceptor | RoleLearner) {
		t.Errorf("Roles(1) = %v", got)
	}
	if got := cfg.Roles(99); got != 0 {
		t.Errorf("Roles(non-member) = %v, want 0", got)
	}
	if accs := cfg.Acceptors(); len(accs) != 3 {
		t.Errorf("Acceptors = %v", accs)
	}
	if ls := cfg.Learners(); len(ls) != 2 || ls[0] != 1 || ls[1] != 3 {
		t.Errorf("Learners = %v", ls)
	}
	s.MarkDown(2)
	cfg, _ = s.Ring(7)
	if alive := cfg.AliveAcceptors(); len(alive) != 2 {
		t.Errorf("AliveAcceptors = %v", alive)
	}
	if (RoleProposer | RoleLearner).String() != "PL" {
		t.Errorf("Role string = %q", (RoleProposer | RoleLearner).String())
	}
	if Role(0).String() != "-" {
		t.Errorf("zero role string = %q", Role(0).String())
	}
}

func TestRingsSorted(t *testing.T) {
	s := NewService()
	for _, id := range []transport.RingID{5, 1, 3} {
		if err := s.CreateRing(id, threeAcceptorRing()); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Rings()
	want := []transport.RingID{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rings() = %v, want %v", got, want)
		}
	}
}

func TestMeta(t *testing.T) {
	s := NewService()
	if _, ok := s.GetMeta("schema"); ok {
		t.Error("unset meta key should miss")
	}
	s.PutMeta("schema", []byte("hash:3"))
	v, ok := s.GetMeta("schema")
	if !ok || string(v) != "hash:3" {
		t.Errorf("GetMeta = %q, %v", v, ok)
	}
	// Returned slice is a copy.
	v[0] = 'X'
	v2, _ := s.GetMeta("schema")
	if string(v2) != "hash:3" {
		t.Error("GetMeta must return a copy")
	}

	ch, cancelMeta := s.WatchMeta("schema")
	defer cancelMeta()
	s.PutMeta("schema", []byte("range:4"))
	select {
	case got := <-ch:
		if string(got) != "range:4" {
			t.Errorf("watched meta = %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("meta watcher not notified")
	}
}

func TestWatchUnknownRing(t *testing.T) {
	s := NewService()
	ch, cancel := s.Watch(42)
	defer cancel()
	select {
	case <-ch:
		t.Error("watch on unknown ring delivered a config")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestWatchMetaBurstKeepsLatest hammers one meta key from many writers
// while slow watchers drain lazily: coalescing intermediate values is
// allowed, but after the dust settles every watcher must observe the
// value GetMeta reports — the reconfig flow depends on a schema watcher
// never missing the final published version. Run with -race.
func TestWatchMetaBurstKeepsLatest(t *testing.T) {
	s := NewService()
	const watchers = 4
	const writers = 8
	const perWriter = 200

	chans := make([]<-chan []byte, watchers)
	for i := range chans {
		ch, cancel := s.WatchMeta("schema")
		defer cancel()
		chans[i] = ch
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.PutMeta("schema", []byte(fmt.Sprintf("w%d-%04d", w, i)))
				if i%32 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	// Slow concurrent drains keep the watcher channels saturated so the
	// drop-oldest path is exercised while writes race; each records the
	// last value it saw (delivery is FIFO, so the last received is the
	// newest delivered).
	lastSeen := make([][]byte, watchers)
	for i, ch := range chans {
		wg.Add(1)
		go func(i int, ch <-chan []byte) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				select {
				case v := <-ch:
					lastSeen[i] = v
				case <-time.After(time.Millisecond):
				}
			}
		}(i, ch)
	}
	wg.Wait()

	final, ok := s.GetMeta("schema")
	if !ok {
		t.Fatal("no meta after burst")
	}
	for i, ch := range chans {
	drain:
		for {
			select {
			case v := <-ch:
				lastSeen[i] = v
			default:
				break drain
			}
		}
		if string(lastSeen[i]) != string(final) {
			t.Errorf("watcher %d last observed %q, want final %q", i, lastSeen[i], final)
		}
	}
}

// TestWatchMetaCancel verifies a cancelled watcher stops receiving.
func TestWatchMetaCancel(t *testing.T) {
	s := NewService()
	ch, cancel := s.WatchMeta("k")
	cancel()
	s.PutMeta("k", []byte("v"))
	select {
	case v := <-ch:
		t.Errorf("cancelled watcher received %q", v)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestHotPathReadsDoNotCopy covers what every command and every vote ask
// the configuration: who coordinates, which replica to read from, how
// many votes decide — answered in place, not from a cloned RingConfig.
func TestHotPathReadsDoNotCopy(t *testing.T) {
	s := NewService()
	if err := s.CreateRing(7, threeAcceptorRing()); err != nil {
		t.Fatal(err)
	}
	if id, ok := s.Coordinator(7); !ok || id != 1 {
		t.Errorf("Coordinator(7) = %d, %v; want 1", id, ok)
	}
	if _, ok := s.Coordinator(8); ok {
		t.Error("Coordinator of an unknown ring reported ok")
	}
	if _, ok := s.AliveLearner(8, 0); ok {
		t.Error("AliveLearner of an unknown ring reported ok")
	}
	// Learners are 1 and 3: the index rotates over the alive ones.
	for i, want := range []transport.ProcessID{1, 3, 1, 3} {
		if id, ok := s.AliveLearner(7, uint64(i)); !ok || id != want {
			t.Errorf("AliveLearner(7, %d) = %d, %v; want %d", i, id, ok, want)
		}
	}
	s.MarkDown(1)
	if id, _ := s.Coordinator(7); id != 2 {
		t.Errorf("Coordinator after failover = %d, want 2", id)
	}
	for i := uint64(0); i < 3; i++ {
		if id, ok := s.AliveLearner(7, i); !ok || id != 3 {
			t.Errorf("AliveLearner(7, %d) with 1 down = %d, %v; want 3", i, id, ok)
		}
	}
	s.MarkDown(3)
	if _, ok := s.AliveLearner(7, 0); ok {
		t.Error("AliveLearner with every learner down reported ok")
	}
	cfg, _ := s.Ring(7)
	if got := cfg.Majority(); got != 2 {
		t.Errorf("Majority of 3 acceptors (2 down) = %d, want 2: quorums count the full set", got)
	}
	if got := (RingConfig{Members: []Member{{ID: 1, Roles: RoleAcceptor}, {ID: 2, Roles: RoleLearner}}}).Majority(); got != 1 {
		t.Errorf("Majority of 1 acceptor = %d, want 1", got)
	}

	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	s.MarkUp(3)
	var sink int
	if got := testing.AllocsPerRun(1000, func() { sink += cfg.Majority() }); got != 0 {
		t.Errorf("Majority: %.1f allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		id, _ := s.Coordinator(7)
		sink += int(id)
	}); got != 0 {
		t.Errorf("Coordinator: %.1f allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		id, _ := s.AliveLearner(7, uint64(sink))
		sink += int(id)
	}); got != 0 {
		t.Errorf("AliveLearner: %.1f allocs, want 0", got)
	}
}
