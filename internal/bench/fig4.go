package bench

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"amcast/internal/baseline"
	"amcast/internal/cluster"
	"amcast/internal/core"
	"amcast/internal/metrics"
	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/store"
	"amcast/internal/transport"
	"amcast/internal/ycsb"
)

// Fig4System names one of the compared systems.
type Fig4System string

// The four systems of Figure 4.
const (
	SysCassandra Fig4System = "Cassandra"
	SysMRPIndep  Fig4System = "MRP-Store (indep. rings)"
	SysMRPGlobal Fig4System = "MRP-Store"
	SysMySQL     Fig4System = "MySQL"
)

// Fig4Systems lists them in the paper's order.
var Fig4Systems = []Fig4System{SysCassandra, SysMRPIndep, SysMRPGlobal, SysMySQL}

// Fig4Cell is one (system, workload) bar of the top graph.
type Fig4Cell struct {
	System   Fig4System
	Workload ycsb.Workload
	OpsPerS  float64
}

// Fig4Latency is one bar of the bottom graph (workload F latencies).
type Fig4Latency struct {
	System Fig4System
	Op     string // Read, Update, Read-Mod-Write
	MeanMs float64
}

// Fig4Result aggregates the figure.
type Fig4Result struct {
	Cells    []Fig4Cell
	FLatency []Fig4Latency
}

// kvSystem abstracts the four compared stores for the YCSB driver.
type kvSystem interface {
	// Do executes one YCSB op and returns an error on failure.
	Do(op ycsb.Op) error
	// Load inserts an initial record.
	Load(key string, value []byte) error
	// Close tears the client (not the servers) down.
	Close()
}

// Fig4 reproduces Figure 4: YCSB workloads A–F over the four systems, and
// workload F's per-operation latency.
func Fig4(o Options) (Fig4Result, error) {
	o = o.withDefaults()
	threads := min(o.Clients, 100)
	o.header("Figure 4", fmt.Sprintf("YCSB (%d records, %d client threads)", o.Records, threads))
	o.printf("%-26s", "system")
	for _, w := range ycsb.Workloads {
		o.printf(" %9s", "wl-"+w.String())
	}
	o.printf("\n")

	var res Fig4Result
	latencies := make(map[Fig4System]map[string]*metrics.Histogram)
	for _, sys := range Fig4Systems {
		o.printf("%-26s", sys)
		latencies[sys] = map[string]*metrics.Histogram{
			"Read":           metrics.NewHistogram(),
			"Update":         metrics.NewHistogram(),
			"Read-Mod-Write": metrics.NewHistogram(),
		}
		for _, w := range ycsb.Workloads {
			ops, err := fig4Run(o, sys, w, threads, latencies[sys])
			if err != nil {
				return res, fmt.Errorf("fig4 %s/%s: %w", sys, w, err)
			}
			res.Cells = append(res.Cells, Fig4Cell{System: sys, Workload: w, OpsPerS: ops})
			o.printf(" %9.0f", ops)
		}
		o.printf("\n")
	}

	o.printf("\nWorkload F latency (ms):\n%-26s %10s %10s %10s\n", "system", "Read", "Update", "RMW")
	for _, sys := range Fig4Systems {
		h := latencies[sys]
		read := float64(h["Read"].Mean()) / 1e6
		upd := float64(h["Update"].Mean()) / 1e6
		rmw := float64(h["Read-Mod-Write"].Mean()) / 1e6
		o.printf("%-26s %10.3f %10.3f %10.3f\n", sys, read, upd, rmw)
		res.FLatency = append(res.FLatency,
			Fig4Latency{System: sys, Op: "Read", MeanMs: read},
			Fig4Latency{System: sys, Op: "Update", MeanMs: upd},
			Fig4Latency{System: sys, Op: "Read-Mod-Write", MeanMs: rmw},
		)
	}
	return res, nil
}

// Fig4YCSBOnMRP runs one YCSB workload against the global-ring MRP-Store
// configuration and returns its throughput (exported for the top-level
// Table 1 benchmark).
//
//lint:allow testonly BenchmarkTable1Operations (bench_test.go at the module root) drives it
func Fig4YCSBOnMRP(o Options, w ycsb.Workload) (float64, error) {
	o = o.withDefaults()
	return fig4Run(o, SysMRPGlobal, w, min(o.Clients, 100), nil)
}

// fig4Run boots one system, loads the database and drives one workload.
func fig4Run(o Options, sys Fig4System, w ycsb.Workload, threads int, fLat map[string]*metrics.Histogram) (float64, error) {
	mk, teardown, err := fig4Boot(o, sys)
	if err != nil {
		return 0, err
	}
	defer teardown()

	// Load phase through a single client (batched under the hood for the
	// replicated systems by ring packing).
	loader := mk()
	value := make([]byte, 1024)
	var loadWG sync.WaitGroup
	loadErr := make(chan error, 8)
	keys := ycsb.LoadKeys(o.Records)
	chunk := (len(keys) + 7) / 8
	for c := 0; c < len(keys); c += chunk {
		end := min(c+chunk, len(keys))
		part := keys[c:end]
		cl := mk()
		loadWG.Add(1)
		go func(cl kvSystem, part []string) {
			defer loadWG.Done()
			defer cl.Close()
			for _, k := range part {
				if err := cl.Load(k, value); err != nil {
					select {
					case loadErr <- err:
					default:
					}
					return
				}
			}
		}(cl, part)
	}
	loadWG.Wait()
	loader.Close()
	select {
	case err := <-loadErr:
		return 0, fmt.Errorf("load phase: %w", err)
	default:
	}

	factory, err := ycsb.NewFactory(ycsb.Config{
		Workload: w, Records: o.Records, ValueSize: 1024, MaxScanLength: 20, Seed: 7,
	})
	if err != nil {
		return 0, err
	}

	stop := make(chan struct{})
	meter := metrics.NewMeter()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		gen := factory.Generator(int64(t))
		cl := mk()
		wg.Add(1)
		go func(cl kvSystem) {
			defer wg.Done()
			defer cl.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				start := time.Now()
				if err := cl.Do(op); err != nil {
					continue // overload shedding: retry next op
				}
				meter.Add(1, uint64(len(op.Value)))
				if w == ycsb.WorkloadF && fLat != nil {
					d := time.Since(start)
					switch op.Type {
					case ycsb.OpRead:
						fLat["Read"].Record(d)
					case ycsb.OpUpdate:
						fLat["Update"].Record(d)
					case ycsb.OpReadModifyWrite:
						fLat["Read-Mod-Write"].Record(d)
					}
				}
			}
		}(cl)
	}
	time.Sleep(o.Duration)
	close(stop)
	wg.Wait()
	ops, _ := meter.Rate()
	return ops, nil
}

// fig4Boot starts servers for one system and returns a client factory.
func fig4Boot(o Options, sys Fig4System) (mk func() kvSystem, teardown func(), err error) {
	switch sys {
	case SysCassandra:
		net := transport.NewNetwork(nil)
		ev, err := baseline.StartEventual(baseline.EventualConfig{Net: net, Partitions: 3, ReplicationFactor: 3})
		if err != nil {
			net.Close()
			return nil, nil, err
		}
		var idSeq transport.ProcessID = 50000
		var mu sync.Mutex
		mk = func() kvSystem {
			mu.Lock()
			idSeq++
			id := idSeq
			mu.Unlock()
			return &eventualKV{c: ev.NewClient(id)}
		}
		return mk, func() { ev.Stop(); net.Close() }, nil
	case SysMySQL:
		net := transport.NewNetwork(nil)
		sn, err := baseline.StartSingleNode(baseline.SingleNodeConfig{
			Net: net,
			WAL: storage.NewSimDisk(storage.NewMemLog(), storage.SSDSpec(), false, o.Scale),
		})
		if err != nil {
			net.Close()
			return nil, nil, err
		}
		var idSeq transport.ProcessID = 51000
		var mu sync.Mutex
		mk = func() kvSystem {
			mu.Lock()
			idSeq++
			id := idSeq
			mu.Unlock()
			return &singleKV{c: sn.NewClient(id)}
		}
		return mk, func() { sn.Stop(); net.Close() }, nil
	default: // the two MRP-Store configurations
		d := cluster.NewDeployment(nil)
		sc, err := d.StartStore(cluster.StoreOptions{
			Partitions: 3,
			Replicas:   3,
			Global:     sys == SysMRPGlobal,
			Kind:       store.HashPartitioned,
			Ring: core.RingOptions{
				RetryInterval: 200 * time.Millisecond,
				SkipEnabled:   true,
				Delta:         5 * time.Millisecond,
				Lambda:        9000,
				BatchBytes:    32 << 10,
				Window:        256,
			},
		})
		if err != nil {
			d.Close()
			return nil, nil, err
		}
		mk = func() kvSystem {
			client, raw, err := sc.NewClient(netem.SiteLocal)
			if err != nil {
				panic(fmt.Sprintf("bench: new store client: %v", err))
			}
			return &mrpKV{c: client, raw: raw}
		}
		return mk, d.Close, nil
	}
}

// scanHi derives a scan upper bound from a YCSB key and scan length.
func scanHi(key string, length int) string {
	idx := 0
	if n, err := strconv.Atoi(strings.TrimPrefix(key, "user")); err == nil {
		idx = n
	}
	return ycsb.Key(idx + length)
}

// mrpKV adapts the MRP-Store client.
type mrpKV struct {
	c   *store.Client
	raw *cluster.Client
}

func (m *mrpKV) Load(key string, value []byte) error { return m.c.Insert(key, value) }

func (m *mrpKV) Do(op ycsb.Op) error {
	switch op.Type {
	case ycsb.OpRead:
		_, _, err := m.c.Read(op.Key)
		return err
	case ycsb.OpUpdate:
		return m.c.Update(op.Key, op.Value)
	case ycsb.OpInsert:
		return m.c.Insert(op.Key, op.Value)
	case ycsb.OpScan:
		_, err := m.c.Scan(op.Key, scanHi(op.Key, op.ScanLength))
		return err
	case ycsb.OpReadModifyWrite:
		if _, _, err := m.c.Read(op.Key); err != nil {
			return err
		}
		return m.c.Update(op.Key, op.Value)
	}
	return nil
}

func (m *mrpKV) Close() { m.raw.Close() }

// eventualKV adapts the Cassandra model.
type eventualKV struct{ c *baseline.EventualClient }

func (e *eventualKV) Load(key string, value []byte) error {
	_, err := e.c.Do(store.Op{Kind: store.OpInsert, Key: key, Value: value})
	return err
}

func (e *eventualKV) Do(op ycsb.Op) error {
	switch op.Type {
	case ycsb.OpRead:
		_, err := e.c.Do(store.Op{Kind: store.OpRead, Key: op.Key})
		return err
	case ycsb.OpUpdate:
		_, err := e.c.Do(store.Op{Kind: store.OpUpdate, Key: op.Key, Value: op.Value})
		return err
	case ycsb.OpInsert:
		_, err := e.c.Do(store.Op{Kind: store.OpInsert, Key: op.Key, Value: op.Value})
		return err
	case ycsb.OpScan:
		_, err := e.c.Scan(op.Key, scanHi(op.Key, op.ScanLength))
		return err
	case ycsb.OpReadModifyWrite:
		if _, err := e.c.Do(store.Op{Kind: store.OpRead, Key: op.Key}); err != nil {
			return err
		}
		_, err := e.c.Do(store.Op{Kind: store.OpUpdate, Key: op.Key, Value: op.Value})
		return err
	}
	return nil
}

func (e *eventualKV) Close() { e.c.Close() }

// singleKV adapts the MySQL model.
type singleKV struct{ c *baseline.SingleNodeClient }

func (s *singleKV) Load(key string, value []byte) error {
	_, err := s.c.Do(store.Op{Kind: store.OpInsert, Key: key, Value: value})
	return err
}

func (s *singleKV) Do(op ycsb.Op) error {
	switch op.Type {
	case ycsb.OpRead:
		_, err := s.c.Do(store.Op{Kind: store.OpRead, Key: op.Key})
		return err
	case ycsb.OpUpdate:
		_, err := s.c.Do(store.Op{Kind: store.OpUpdate, Key: op.Key, Value: op.Value})
		return err
	case ycsb.OpInsert:
		_, err := s.c.Do(store.Op{Kind: store.OpInsert, Key: op.Key, Value: op.Value})
		return err
	case ycsb.OpScan:
		_, err := s.c.Do(store.Op{Kind: store.OpScan, Key: op.Key, KeyHi: scanHi(op.Key, op.ScanLength)})
		return err
	case ycsb.OpReadModifyWrite:
		if _, err := s.c.Do(store.Op{Kind: store.OpRead, Key: op.Key}); err != nil {
			return err
		}
		_, err := s.c.Do(store.Op{Kind: store.OpUpdate, Key: op.Key, Value: op.Value})
		return err
	}
	return nil
}

func (s *singleKV) Close() { s.c.Close() }
