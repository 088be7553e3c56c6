// Package cluster assembles complete in-process deployments of the
// paper's systems — MRP-Store and dLog clusters over Multi-Ring Paxos with
// an emulated network — so integration tests, benchmarks (Figures 3–8) and
// examples share one wiring layer instead of re-plumbing rings, routers
// and schemas.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/dlog"
	"amcast/internal/netem"
	"amcast/internal/obs"
	"amcast/internal/reconfig"
	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/storage"
	"amcast/internal/store"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// GlobalRing is the conventional ring id for the global group that all
// replicas subscribe to in global-ring configurations.
const GlobalRing transport.RingID = 1000

// ReplicaID computes the process id of replica r (1-based) of partition p
// (1-based).
func ReplicaID(p, r int) transport.ProcessID {
	return transport.ProcessID(p*100 + r)
}

// Deployment owns the emulated network and coordination service, plus
// the deployment-wide observability surface: one metric registry and one
// trace collector spanning every simulated process.
type Deployment struct {
	Net *transport.Network
	Svc *coord.Service
	// Obs is the unified metric registry every process registers into.
	Obs *obs.Registry
	// Trace collects the per-process span recorders for cluster-wide
	// trace assembly (/debug/trace/<id>).
	Trace *trace.Collector

	nextClient  atomic.Uint32
	traceSample atomic.Uint64

	mu      sync.Mutex
	cleanup []func()
	recs    map[transport.ProcessID]*trace.Recorder
}

// NewDeployment creates a deployment over a topology (nil = zero-delay).
func NewDeployment(topo *netem.Topology) *Deployment {
	d := &Deployment{
		Net:   transport.NewNetwork(topo),
		Svc:   coord.NewService(),
		Obs:   obs.NewRegistry(),
		Trace: trace.NewCollector(),
		recs:  make(map[transport.ProcessID]*trace.Recorder),
	}
	// Process-wide GC/heap gauges and buffer-pool counters ride in every
	// deployment registry: memory pressure is part of the protocol story.
	obs.RegisterRuntime(d.Obs)
	obs.RegisterBufPool(d.Obs)
	d.nextClient.Store(20000)
	return d
}

// SetTraceSampling sets the root-sampling divisor on every process
// recorder, existing and future: 0 disables tracing, 1 samples every
// client submit, n samples every nth.
func (d *Deployment) SetTraceSampling(n uint64) {
	d.traceSample.Store(n)
	d.mu.Lock()
	recs := make([]*trace.Recorder, 0, len(d.recs))
	for _, r := range d.recs {
		recs = append(recs, r)
	}
	d.mu.Unlock()
	for _, r := range recs {
		r.SetSampling(n)
	}
}

// recorderFor returns the process's span recorder, creating and
// registering it on first use. Restarted processes keep their recorder,
// so the collector never accumulates duplicates.
func (d *Deployment) recorderFor(id transport.ProcessID, name string) *trace.Recorder {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, ok := d.recs[id]; ok {
		return r
	}
	r := trace.NewRecorder(name, 0)
	r.SetSampling(d.traceSample.Load())
	d.Trace.Register(r)
	d.recs[id] = r
	return r
}

// Close shuts everything down in reverse start order.
func (d *Deployment) Close() {
	d.mu.Lock()
	fns := d.cleanup
	d.cleanup = nil
	d.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
	d.Net.Close()
}

func (d *Deployment) onClose(fn func()) {
	d.mu.Lock()
	d.cleanup = append(d.cleanup, fn)
	d.mu.Unlock()
}

// Client bundles a client-side stack: transport, node and smr client.
type Client struct {
	ID  transport.ProcessID
	SMR *smr.Client

	node *core.Node
	tr   transport.Transport
}

// Close releases the client's resources.
func (c *Client) Close() {
	c.SMR.Close()
	c.node.Stop()
	_ = c.tr.Close()
}

// NewClient attaches a fresh client process at a site.
func (d *Deployment) NewClient(site netem.Site) (*Client, error) {
	id := transport.ProcessID(d.nextClient.Add(1))
	tr := d.Net.Attach(id, site)
	router := transport.NewRouter(tr)
	rec := d.recorderFor(id, fmt.Sprintf("client%d", id))
	node, err := core.New(core.Config{Self: id, Router: router, Coord: d.Svc, Tracer: rec})
	if err != nil {
		return nil, err
	}
	cl, err := smr.NewClient(smr.ClientConfig{
		Self: id, Node: node, Transport: tr, Service: router.Service(),
		// Wire the coordination service so in-flight submissions re-route
		// on coordinator failover instead of waiting out retry timers.
		Coord:  d.Svc,
		Tracer: rec,
	})
	if err != nil {
		node.Stop()
		return nil, err
	}
	d.wireClientObs(id, cl)
	return &Client{ID: id, SMR: cl, node: node, tr: tr}, nil
}

// NewRawProcess attaches a bare process (transport + router) at a site.
// Reconfiguration controllers use it for their RPC traffic: each
// process's service inbox has a single consumer, so the controller
// cannot share a client's.
func (d *Deployment) NewRawProcess(site netem.Site) (transport.ProcessID, *transport.Router) {
	id := transport.ProcessID(d.nextClient.Add(1))
	tr := d.Net.Attach(id, site)
	return id, transport.NewRouter(tr)
}

// NewReconfigController attaches a reconfiguration controller to the
// deployment: a store client for marker submission plus a raw process for
// the prepare/transfer RPCs. The returned cleanup releases both.
func (c *StoreCluster) NewReconfigController() (*reconfig.Controller, func(), error) {
	cl, err := c.D.NewClient(netem.SiteLocal)
	if err != nil {
		return nil, nil, err
	}
	id, router := c.D.NewRawProcess(netem.SiteLocal)
	ctrl, err := reconfig.NewController(reconfig.Config{
		Coord:     c.D.Svc,
		Client:    cl.SMR,
		Self:      id,
		Transport: router.Transport(),
		Service:   router.Service(),
	})
	if err != nil {
		cl.Close()
		_ = router.Transport().Close()
		return nil, nil, err
	}
	cleanup := func() {
		ctrl.Close()
		cl.Close()
		_ = router.Transport().Close()
	}
	return ctrl, cleanup, nil
}

// StoreOptions configures a StartStore deployment.
type StoreOptions struct {
	// Partitions and Replicas set the layout (paper: 3 partitions × 3
	// replicas in Figure 4; 4 regional partitions in Figure 7).
	Partitions int
	Replicas   int
	// Global adds a global ring all replicas subscribe to (Figure 4's
	// plain "MRP-Store"; false gives "MRP-Store indep. rings").
	Global bool
	// Kind selects hash or range partitioning (default hash).
	Kind store.SchemaKind
	// SiteOf places each partition's processes (nil = everything local).
	SiteOf func(partition int) netem.Site
	// SiteOfReplica, when set, places each replica individually and takes
	// precedence over SiteOf — e.g. spreading one partition's replicas
	// across regions so its ring pays WAN latency while a co-located
	// replica can still serve local reads.
	SiteOfReplica func(partition, replica int) netem.Site
	// Ring tunes the consensus rings.
	Ring core.RingOptions
	// M is the deterministic merge quota (default 1).
	M int
	// GlobalLambda overrides rate-leveling λ on the global ring.
	GlobalLambda int
	// CheckpointEvery commands between replica checkpoints (0 off).
	CheckpointEvery int
	// RecoveryTimeout enables peer recovery on restart.
	RecoveryTimeout time.Duration
	// NewLog supplies acceptor logs per (ring, process); nil = memory.
	NewLog func(ring transport.RingID, self transport.ProcessID) (storage.Log, error)
	// Detector, when set, runs a heartbeat failure detector on every
	// store server: crashes are noticed and marked down by suspicion
	// quorum (coord.Detector) with no oracle MarkDown calls.
	Detector *coord.DetectorOptions
	// RetainLogs keeps each (ring, process) acceptor log across
	// Kill/Restart, so a restarted replica recovers from an intact WAL
	// even with the default in-memory logs. Ignored when the NewLog
	// factory already persists (a storage.FileWAL on disk).
	RetainLogs bool
}

// StoreCluster is a running MRP-Store deployment.
type StoreCluster struct {
	D      *Deployment
	Schema store.Schema
	opts   StoreOptions

	mu       sync.Mutex
	servers  map[transport.ProcessID]*store.Server
	ckpts    map[transport.ProcessID]recovery.Store
	dets     map[transport.ProcessID]*coord.Detector
	logs     map[logKey]storage.Log       // retained WALs (RetainLogs)
	obsWired map[transport.ProcessID]bool // processes with registered metrics
	walWired map[logKey]bool              // logs with a registered fsync counter
	// partRing maps partition index -> partition ring id for partitions
	// added after boot (the initial layout uses ring id == index).
	partRing map[int]transport.RingID
}

// logKey identifies one acceptor log in the retained-WAL registry.
type logKey struct {
	ring transport.RingID
	id   transport.ProcessID
}

// ringOf returns partition p's ring id.
func (c *StoreCluster) ringOf(p int) transport.RingID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.partRing[p]; ok {
		return g
	}
	return transport.RingID(p)
}

// StartStore boots an MRP-Store cluster: one ring per partition (members:
// the partition's replicas with all roles), optionally a global ring whose
// acceptors are the first replica of each partition and whose learners are
// all replicas.
func (d *Deployment) StartStore(opts StoreOptions) (*StoreCluster, error) {
	if opts.Partitions == 0 {
		opts.Partitions = 3
	}
	if opts.Replicas == 0 {
		opts.Replicas = 3
	}
	if opts.Kind == 0 {
		opts.Kind = store.HashPartitioned
	}
	siteOf := opts.SiteOf
	if siteOf == nil {
		siteOf = func(int) netem.Site { return netem.SiteLocal }
	}

	groups := make([]transport.RingID, opts.Partitions)
	for p := 1; p <= opts.Partitions; p++ {
		groups[p-1] = transport.RingID(p)
		var members []coord.Member
		for r := 1; r <= opts.Replicas; r++ {
			members = append(members, coord.Member{
				ID:    ReplicaID(p, r),
				Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner,
			})
		}
		if err := d.Svc.CreateRing(transport.RingID(p), members); err != nil {
			return nil, err
		}
	}
	global := transport.RingID(0)
	if opts.Global {
		global = GlobalRing
		var members []coord.Member
		for p := 1; p <= opts.Partitions; p++ {
			for r := 1; r <= opts.Replicas; r++ {
				roles := coord.RoleProposer | coord.RoleLearner
				if r == 1 {
					roles |= coord.RoleAcceptor
				}
				members = append(members, coord.Member{ID: ReplicaID(p, r), Roles: roles})
			}
		}
		if err := d.Svc.CreateRing(global, members); err != nil {
			return nil, err
		}
	}

	var schema store.Schema
	if opts.Kind == store.RangePartitioned {
		schema = store.RangeSchema(groups, global)
	} else {
		schema = store.HashSchema(groups, global)
	}
	if err := store.PublishSchema(d.Svc, schema); err != nil {
		return nil, err
	}

	c := &StoreCluster{
		D:        d,
		Schema:   schema,
		opts:     opts,
		servers:  make(map[transport.ProcessID]*store.Server),
		ckpts:    make(map[transport.ProcessID]recovery.Store),
		dets:     make(map[transport.ProcessID]*coord.Detector),
		logs:     make(map[logKey]storage.Log),
		partRing: make(map[int]transport.RingID),
		obsWired: make(map[transport.ProcessID]bool),
		walWired: make(map[logKey]bool),
	}
	if err := c.startPartitions(1, opts.Partitions); err != nil {
		return nil, err
	}
	d.onClose(c.StopAll)
	return c, nil
}

// startPartitions boots every replica of partitions first..last. All of
// them are on the network before any node starts, so a coordinator's
// first Phase 1A reaches peers the Network knows instead of being dropped
// and re-sent only at the ring's retry tick.
func (c *StoreCluster) startPartitions(first, last int) error {
	trs := make(map[transport.ProcessID]transport.Transport)
	for p := first; p <= last; p++ {
		for r := 1; r <= c.opts.Replicas; r++ {
			trs[ReplicaID(p, r)] = c.attach(p, r)
		}
	}
	for p := first; p <= last; p++ {
		for r := 1; r <= c.opts.Replicas; r++ {
			if err := c.startServer(p, r, trs[ReplicaID(p, r)], false); err != nil {
				return err
			}
		}
	}
	return nil
}

// attach puts replica r of partition p on the network at its site.
func (c *StoreCluster) attach(p, r int) transport.Transport {
	site := netem.SiteLocal
	if c.opts.SiteOfReplica != nil {
		site = c.opts.SiteOfReplica(p, r)
	} else if c.opts.SiteOf != nil {
		site = c.opts.SiteOf(p)
	}
	return c.D.Net.Attach(ReplicaID(p, r), site)
}

// startServer boots one replica process on its attached transport.
// peerRecovery controls whether the replica consults partition peers for
// newer checkpoints.
func (c *StoreCluster) startServer(p, r int, tr transport.Transport, peerRecovery bool) error {
	id := ReplicaID(p, r)
	router := transport.NewRouter(tr)
	var peers []transport.ProcessID
	for rr := 1; rr <= c.opts.Replicas; rr++ {
		if rr != r {
			peers = append(peers, ReplicaID(p, rr))
		}
	}
	ckpt := c.checkpointStore(id)

	cfg := store.ServerConfig{
		Self:            id,
		Partition:       c.ringOf(p),
		Peers:           peers,
		Router:          router,
		Coord:           c.D.Svc,
		Checkpoints:     ckpt,
		CheckpointEvery: c.opts.CheckpointEvery,
		Ring:            c.opts.Ring,
		M:               c.opts.M,
		GlobalLambda:    c.opts.GlobalLambda,
		Tracer:          c.D.recorderFor(id, fmt.Sprintf("p%dr%d", p, r)),
	}
	if peerRecovery {
		cfg.RecoveryTimeout = c.opts.RecoveryTimeout
	}
	if c.opts.RetainLogs {
		cfg.NewLog = func(ring transport.RingID) (storage.Log, error) {
			c.mu.Lock()
			lg, ok := c.logs[logKey{ring, id}]
			c.mu.Unlock()
			if ok {
				return lg, nil
			}
			if c.opts.NewLog != nil {
				var err error
				if lg, err = c.opts.NewLog(ring, id); err != nil {
					return nil, err
				}
			} else {
				lg = storage.NewMemLog()
			}
			c.mu.Lock()
			c.logs[logKey{ring, id}] = lg
			c.mu.Unlock()
			return lg, nil
		}
	} else if c.opts.NewLog != nil {
		cfg.NewLog = func(ring transport.RingID) (storage.Log, error) {
			return c.opts.NewLog(ring, id)
		}
	}
	if orig := cfg.NewLog; orig != nil {
		// Register an fsync counter for every durable acceptor log the
		// server opens (in-memory logs expose none).
		cfg.NewLog = func(ring transport.RingID) (storage.Log, error) {
			lg, err := orig(ring)
			if err == nil {
				c.wireWALObs(id, ring, lg, fmt.Sprintf("p%dr%d", p, r))
			}
			return lg, err
		}
	}
	srv, err := store.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("cluster: start store server %d: %w", id, err)
	}
	var det *coord.Detector
	if c.opts.Detector != nil {
		det = coord.NewDetector(id, c.D.Svc, tr, router.Heartbeats(), *c.opts.Detector)
	}
	c.mu.Lock()
	c.servers[id] = srv
	if det != nil {
		c.dets[id] = det
	}
	c.mu.Unlock()
	c.wireStoreObs(p, r)
	return nil
}

// checkpointStore returns a replica's stable checkpoint store, creating
// an in-memory one on first use; it outlives the replica's crashes.
func (c *StoreCluster) checkpointStore(id transport.ProcessID) recovery.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	ckpt, ok := c.ckpts[id]
	if !ok {
		ckpt = recovery.NewMemStore()
		c.ckpts[id] = ckpt
	}
	return ckpt
}

// stopDetector halts and discards the failure detector running for a
// process, withdrawing its suspicion reports.
func (c *StoreCluster) stopDetector(id transport.ProcessID) {
	c.mu.Lock()
	det := c.dets[id]
	delete(c.dets, id)
	c.mu.Unlock()
	if det != nil {
		det.Stop()
	}
}

// Server returns the replica r of partition p.
func (c *StoreCluster) Server(p, r int) *store.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[ReplicaID(p, r)]
}

// NewClient attaches a store client at a site.
func (c *StoreCluster) NewClient(site netem.Site) (*store.Client, *Client, error) {
	cl, err := c.D.NewClient(site)
	if err != nil {
		return nil, nil, err
	}
	sc, err := store.NewClient(c.D.Svc, cl.SMR)
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	return sc, cl, nil
}

// Crash kills replica r of partition p: network detach, server stop,
// liveness mark. Volatile state is lost; the checkpoint store survives
// (stable storage).
func (c *StoreCluster) Crash(p, r int) {
	id := ReplicaID(p, r)
	c.stopDetector(id)
	c.D.Net.Detach(id)
	c.mu.Lock()
	srv := c.servers[id]
	delete(c.servers, id)
	c.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
	c.D.Svc.MarkDown(id)
}

// Kill hard-crashes replica r of partition p with NO liveness mark: the
// process simply vanishes from the network. Detecting the crash is the
// failure detectors' job (StoreOptions.Detector) — there is no oracle.
func (c *StoreCluster) Kill(p, r int) {
	id := ReplicaID(p, r)
	c.stopDetector(id)
	c.D.Net.Detach(id)
	c.mu.Lock()
	srv := c.servers[id]
	delete(c.servers, id)
	c.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
}

// Restart recovers replica r of partition p from its stable checkpoint
// store, consulting peers when the cluster was configured with a
// RecoveryTimeout.
func (c *StoreCluster) Restart(p, r int) error {
	id := ReplicaID(p, r)
	c.D.Svc.MarkUp(id)
	return c.startServer(p, r, c.attach(p, r), c.opts.RecoveryTimeout > 0)
}

// RestartQuiet reboots a killed replica with NO liveness mark: the peer
// detectors notice its resumed heartbeats and mark it up once the rejoin
// hysteresis is satisfied. Pair with Kill for oracle-free crash/recovery.
func (c *StoreCluster) RestartQuiet(p, r int) error {
	return c.startServer(p, r, c.attach(p, r), c.opts.RecoveryTimeout > 0)
}

// AddPartition registers a new partition ring (online reconfiguration):
// partition index p maps to ring id group, with Replicas members holding
// all roles. The servers are NOT started — a scale-out split seeds their
// checkpoint stores first (SeedPartition) and boots them with
// StartPartition once the range transfer completed.
func (c *StoreCluster) AddPartition(p int, group transport.RingID) error {
	var members []coord.Member
	for r := 1; r <= c.opts.Replicas; r++ {
		members = append(members, coord.Member{
			ID:    ReplicaID(p, r),
			Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner,
		})
	}
	if err := c.D.Svc.CreateRing(group, members); err != nil {
		return err
	}
	c.mu.Lock()
	c.partRing[p] = group
	c.mu.Unlock()
	return nil
}

// SeedPartition installs a seed checkpoint (the split's handoff state)
// into every replica's stable checkpoint store before the partition
// boots, so the servers recover the transferred range exactly as they
// would any checkpoint.
func (c *StoreCluster) SeedPartition(p int, seed recovery.Checkpoint) error {
	for r := 1; r <= c.opts.Replicas; r++ {
		id := ReplicaID(p, r)
		if err := c.checkpointStore(id).Save(seed); err != nil {
			return fmt.Errorf("cluster: seed checkpoint for %d: %w", id, err)
		}
	}
	return nil
}

// StartPartition boots every replica of a partition added with
// AddPartition (after SeedPartition, for scale-out splits).
func (c *StoreCluster) StartPartition(p int) error {
	return c.startPartitions(p, p)
}

// DropCheckpoints simulates losing a replica's stable storage.
func (c *StoreCluster) DropCheckpoints(p, r int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ckpts[ReplicaID(p, r)] = recovery.NewMemStore()
}

// StopAll halts every server and failure detector.
func (c *StoreCluster) StopAll() {
	c.mu.Lock()
	servers := c.servers
	c.servers = make(map[transport.ProcessID]*store.Server)
	dets := c.dets
	c.dets = make(map[transport.ProcessID]*coord.Detector)
	c.mu.Unlock()
	for _, d := range dets {
		d.Stop()
	}
	for _, s := range servers {
		s.Stop()
	}
}

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
