package chaos

import (
	"fmt"
	"sync"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/netem"
	"amcast/internal/reconfig"
	"amcast/internal/storage"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// CoordinatorFailover kills the live ring coordinator under load —
// repeatedly — and restarts it quietly each time. No MarkDown/MarkUp
// anywhere: detection, failover and re-admission are entirely the
// failure detectors' doing. This is the campaign the whole detector
// stack is accountable to.
//
//lint:allow testonly TestChaosCoordinatorFailover runs this campaign
func CoordinatorFailover(cycles int) Spec {
	if cycles < 1 {
		cycles = 1
	}
	spec := Spec{
		Name: "coordinator-failover",
		Store: cluster.StoreOptions{
			Partitions:      1,
			Replicas:        3,
			CheckpointEvery: 200,
		},
	}
	at := 300 * time.Millisecond
	for i := 0; i < cycles; i++ {
		victim := fmt.Sprintf("victim-%d", i)
		spec.Events = append(spec.Events,
			Event{At: at, Name: fmt.Sprintf("kill coordinator (cycle %d)", i), Do: func(r *Run) error {
				p, rep, ok := r.Coordinator(1)
				if !ok {
					return fmt.Errorf("no coordinator to kill")
				}
				r.Put(victim, [2]int{p, rep})
				r.Kill(p, rep)
				return nil
			}},
			Event{At: at + 1800*time.Millisecond, Name: fmt.Sprintf("restart (cycle %d)", i), Do: func(r *Run) error {
				v, ok := r.Get(victim).([2]int)
				if !ok {
					return fmt.Errorf("no victim recorded")
				}
				r.Restart(v[0], v[1])
				return nil
			}},
		)
		at += 2800 * time.Millisecond
	}
	spec.Tail = 700 * time.Millisecond
	return spec
}

// RollingKillsDuringSplit starts a live scale-out partition split and,
// while the marker/transfer/boot pipeline is in flight, kills and
// restarts old-partition replicas one at a time. Acked writes must
// survive regardless of whether the split completes or aborts cleanly
// (both are legal outcomes under fire; a half-applied split is not).
//
//lint:allow testonly TestChaosRollingKillsDuringSplit runs this campaign
func RollingKillsDuringSplit() Spec {
	spec := Spec{
		Name: "rolling-kills-during-split",
		Store: cluster.StoreOptions{
			Partitions:      1,
			Replicas:        3,
			Kind:            store.RangePartitioned,
			CheckpointEvery: 200,
		},
		Workload: Workload{Writers: 3, Keys: 24},
	}
	splitAt := Key(36) // middle of the 72-key workload space
	spec.Events = append(spec.Events,
		Event{At: 250 * time.Millisecond, Name: "start live split", Do: func(r *Run) error {
			if err := r.Cluster.AddPartition(2, 2); err != nil {
				return err
			}
			ctrl, cleanup, err := r.Cluster.NewReconfigController()
			if err != nil {
				return err
			}
			r.Go("split", func() error {
				defer cleanup()
				res, err := ctrl.Split(reconfig.SplitSpec{
					OldGroup: 1,
					NewGroup: 2,
					Key:      splitAt,
					OldReplicas: []transport.ProcessID{
						cluster.ReplicaID(1, 1), cluster.ReplicaID(1, 2), cluster.ReplicaID(1, 3),
					},
				}, func(res *reconfig.SplitResult) error {
					if err := r.Cluster.SeedPartition(2, res.Seed); err != nil {
						return err
					}
					if err := r.Cluster.StartPartition(2); err != nil {
						return err
					}
					r.TrackPartition(2)
					return nil
				})
				if err != nil {
					// A clean abort under fire is legal; the Check below
					// verifies the schema did not half-flip.
					r.Put("split", "aborted")
					r.Note("split aborted: %v", err)
					return nil
				}
				r.Put("split", "completed")
				r.Note("split completed: moved %d keys, schema v%d", res.MovedKeys, res.Schema.Version)
				return nil
			})
			return nil
		}},
		Event{At: 450 * time.Millisecond, Name: "kill replica 1/3", Do: func(r *Run) error {
			r.Kill(1, 3)
			return nil
		}},
		Event{At: 1700 * time.Millisecond, Name: "restart replica 1/3", Do: func(r *Run) error {
			r.Restart(1, 3)
			return nil
		}},
		Event{At: 2600 * time.Millisecond, Name: "kill replica 1/2", Do: func(r *Run) error {
			r.Kill(1, 2)
			return nil
		}},
		Event{At: 3800 * time.Millisecond, Name: "restart replica 1/2", Do: func(r *Run) error {
			r.Restart(1, 2)
			return nil
		}},
	)
	spec.Tail = 700 * time.Millisecond
	spec.Check = func(r *Run) error {
		sc, cl, err := r.Cluster.NewClient(netem.SiteLocal)
		if err != nil {
			return err
		}
		defer cl.Close()
		v := sc.Schema().Version
		switch r.Get("split") {
		case "completed":
			if v != 2 {
				return fmt.Errorf("split reported completed but schema is v%d", v)
			}
		case "aborted":
			if v != 1 {
				return fmt.Errorf("split aborted but schema half-flipped to v%d", v)
			}
		default:
			return fmt.Errorf("split never ran")
		}
		return nil
	}
	return spec
}

// WANPartitionHeal spreads one partition's replicas across EC2 regions
// (the ring pays WAN latency), then severs one replica's region from
// the world. The detectors must evict exactly that replica — the
// pairwise suspicion the isolated node files against everyone else must
// never reach quorum — and re-admit it after the heal, with acked
// writes surviving throughout.
// scale shrinks the geo latencies (0 = 0.05, i.e. 20× faster, the same
// compression the cluster tests use).
//
//lint:allow testonly TestChaosWANPartitionHeal runs this campaign
func WANPartitionHeal(scale float64) Spec {
	if scale == 0 {
		scale = 0.05
	}
	topo := netem.EC2Topology()
	topo.SetScale(scale)
	regions := []netem.Site{netem.SiteUSEast, netem.SiteUSWest, netem.SiteEUWest}
	spec := Spec{
		Name:     "wan-partition-heal",
		Topology: topo,
		Store: cluster.StoreOptions{
			Partitions:      1,
			Replicas:        3,
			CheckpointEvery: 200,
			SiteOfReplica:   func(p, r int) netem.Site { return regions[(r-1)%len(regions)] },
		},
		// WAN RTTs stretch op latency; keep the op timeout generous.
		Workload: Workload{Writers: 3, Keys: 24, Timeout: 15 * time.Second},
	}
	cut := cluster.ReplicaID(1, 3)
	spec.Events = append(spec.Events,
		Event{At: 500 * time.Millisecond, Name: "isolate replica 1/3 (region cut)", Do: func(r *Run) error {
			r.Faults.Isolate(uint32(cut))
			r.WatchDown(1, 3, "region cut")
			return nil
		}},
		Event{At: 3 * time.Second, Name: "heal region", Do: func(r *Run) error {
			r.Faults.Unisolate(uint32(cut))
			r.WatchUp(1, 3, "region heal")
			return nil
		}},
	)
	spec.Tail = time.Second
	spec.Check = func(r *Run) error {
		cfg, ok := r.D.Svc.Ring(1)
		if !ok {
			return fmt.Errorf("ring 1 vanished")
		}
		for rep := 1; rep <= 3; rep++ {
			if cfg.Down[cluster.ReplicaID(1, rep)] {
				return fmt.Errorf("replica 1/%d still down after heal", rep)
			}
		}
		return nil
	}
	return spec
}

// DiskFullAcceptor fills one acceptor's WAL device mid-run. The ring's
// commit-failure budget must make that node step out loudly (surviving
// quorum keeps deciding), and clearing the fault must let its retained
// batch commit and the node re-admit itself — no detector involvement,
// no oracle, just the WAL health path.
//
//lint:allow testonly TestChaosDiskFullAcceptor runs this campaign
func DiskFullAcceptor() Spec {
	var mu sync.Mutex
	var sick *storage.SimDisk
	victim := cluster.ReplicaID(1, 2)
	spec := Spec{
		Name: "disk-full-acceptor",
		Store: cluster.StoreOptions{
			Partitions:      1,
			Replicas:        3,
			CheckpointEvery: 200,
		},
	}
	spec.Store.Ring.CommitFailureBudget = 5
	spec.Store.Ring.RetryInterval = 20 * time.Millisecond
	spec.Store.NewLog = func(ring transport.RingID, self transport.ProcessID) (storage.Log, error) {
		if self == victim && ring == 1 {
			s := storage.NewSimDisk(storage.NewMemLog(), storage.SSDSpec(), false, 0.0001)
			mu.Lock()
			sick = s
			mu.Unlock()
			return s, nil
		}
		return storage.NewMemLog(), nil
	}
	spec.Events = append(spec.Events,
		Event{At: 400 * time.Millisecond, Name: "disk full at acceptor 1/2", Do: func(r *Run) error {
			mu.Lock()
			s := sick
			mu.Unlock()
			if s == nil {
				return fmt.Errorf("victim's SimDisk was never created")
			}
			s.SetWriteError(storage.ErrDiskFull)
			r.WatchDown(1, 2, "disk full")
			return nil
		}},
		Event{At: 2800 * time.Millisecond, Name: "disk recovers", Do: func(r *Run) error {
			mu.Lock()
			s := sick
			mu.Unlock()
			s.SetWriteError(nil)
			r.WatchUp(1, 2, "disk recovered")
			return nil
		}},
	)
	spec.Tail = 700 * time.Millisecond
	return spec
}
