package cluster

import (
	"fmt"
	"sync"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/dlog"
	"amcast/internal/netem"
	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// DLogOptions configures a StartDLog deployment.
type DLogOptions struct {
	// Logs is the number of shared logs (one ring each, ids 1..Logs).
	Logs int
	// Servers is the number of dLog server processes. Every server is a
	// member of every log ring and hosts every log (the paper co-locates
	// rings on three machines in Figures 5 and 6).
	Servers int
	// Global adds a common ring for multi-append (Figure 6 subscribes
	// learners to k rings "and a common ring shared by all learners").
	Global bool
	// Ring tunes the consensus rings.
	Ring core.RingOptions
	// M is the deterministic merge quota.
	M int
	// NewAcceptorLog supplies per-ring acceptor logs (Figure 6: one disk
	// per ring); nil = memory.
	NewAcceptorLog func(ring transport.RingID, self transport.ProcessID) (storage.Log, error)
}

// DLogCluster is a running dLog deployment.
type DLogCluster struct {
	D      *Deployment
	Global transport.RingID
	opts   DLogOptions

	mu   sync.Mutex
	sms  map[transport.ProcessID]*dlog.SM
	reps map[transport.ProcessID]*smr.Replica
}

// DLogServerID is the process id of dLog server s (1-based).
func DLogServerID(s int) transport.ProcessID { return transport.ProcessID(9000 + s) }

// StartDLog boots a dLog cluster.
func (d *Deployment) StartDLog(opts DLogOptions) (*DLogCluster, error) {
	if opts.Logs == 0 {
		opts.Logs = 1
	}
	if opts.Servers == 0 {
		opts.Servers = 3
	}
	var members []coord.Member
	for s := 1; s <= opts.Servers; s++ {
		members = append(members, coord.Member{
			ID:    DLogServerID(s),
			Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner,
		})
	}
	groups := make([]transport.RingID, 0, opts.Logs+1)
	for l := 1; l <= opts.Logs; l++ {
		if err := d.Svc.CreateRing(transport.RingID(l), members); err != nil {
			return nil, err
		}
		groups = append(groups, transport.RingID(l))
	}
	global := transport.RingID(0)
	if opts.Global {
		global = GlobalRing
		if err := d.Svc.CreateRing(global, members); err != nil {
			return nil, err
		}
		groups = append(groups, global)
	}

	c := &DLogCluster{
		D:      d,
		Global: global,
		opts:   opts,
		sms:    make(map[transport.ProcessID]*dlog.SM),
		reps:   make(map[transport.ProcessID]*smr.Replica),
	}
	hosted := make([]dlog.LogID, opts.Logs)
	for l := 1; l <= opts.Logs; l++ {
		hosted[l-1] = dlog.LogID(l)
	}
	// Every server is on the network before any node starts, as
	// StartStore's replicas are.
	trs := make([]transport.Transport, opts.Servers)
	for s := range trs {
		trs[s] = d.Net.Attach(DLogServerID(s+1), netem.SiteLocal)
	}
	for s := 1; s <= opts.Servers; s++ {
		id, tr := DLogServerID(s), trs[s-1]
		router := transport.NewRouter(tr)
		sm := dlog.NewSM(dlog.SMConfig{Hosted: hosted})
		rec := d.recorderFor(id, fmt.Sprintf("dlog%d", s))
		nodeCfg := core.Config{
			Self: id, Router: router, Coord: d.Svc,
			M: opts.M, Ring: opts.Ring,
			Tracer: rec,
		}
		if opts.NewAcceptorLog != nil {
			nodeCfg.NewLog = func(ring transport.RingID) (storage.Log, error) {
				return opts.NewAcceptorLog(ring, id)
			}
		}
		node, err := core.New(nodeCfg)
		if err != nil {
			return nil, err
		}
		rep, err := smr.NewReplica(smr.ReplicaConfig{
			Self:      id,
			Partition: transport.RingID(1), // all servers share one partition
			Groups:    groups,
			Node:      node,
			Transport: tr,
			Service:   router.Service(),
			SM:        sm,
			Tracer:    rec,
		}, recovery.Checkpoint{})
		if err != nil {
			node.Stop()
			return nil, fmt.Errorf("cluster: start dlog server %d: %w", id, err)
		}
		c.sms[id] = sm
		c.reps[id] = rep
		c.wireDLogObs(s, groups)
	}
	d.onClose(c.StopAll)
	return c, nil
}

// SM returns server s's state machine (instrumentation).
//
//lint:allow testonly TestDLogServersConverge reads each server's retained entries
func (c *DLogCluster) SM(s int) *dlog.SM {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sms[DLogServerID(s)]
}

// NewClient attaches a dLog client. All servers of this layout host every
// log (one partition), so multi-appends need a single partition response.
func (c *DLogCluster) NewClient() (*dlog.Client, *Client, error) {
	cl, err := c.D.NewClient(netem.SiteLocal)
	if err != nil {
		return nil, nil, err
	}
	dc := dlog.NewClient(cl.SMR, c.Global)
	dc.Partitions = 1
	return dc, cl, nil
}

// StopAll halts every server.
func (c *DLogCluster) StopAll() {
	c.mu.Lock()
	reps := c.reps
	c.reps = make(map[transport.ProcessID]*smr.Replica)
	c.mu.Unlock()
	for _, r := range reps {
		r.Stop()
	}
}
