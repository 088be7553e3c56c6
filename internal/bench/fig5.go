package bench

import (
	"sync"
	"time"

	"amcast/internal/baseline"
	"amcast/internal/cluster"
	"amcast/internal/core"
	"amcast/internal/dlog"
	"amcast/internal/metrics"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// Fig5Point is one x-position of Figure 5 for one system.
type Fig5Point struct {
	System  string // "dLog" or "Bookkeeper"
	Clients int
	OpsPerS float64
	MeanMs  float64
}

// Fig5Result aggregates the figure.
type Fig5Result struct {
	Points []Fig5Point
}

// fig5ClientSteps mirrors the paper's client-thread sweep (up to 200).
var fig5ClientSteps = []int{1, 5, 25, 50, 100, 200}

// Fig5 reproduces Figure 5: dLog vs the Bookkeeper model, 1 KB appends
// written synchronously to disk, throughput and latency vs client threads.
func Fig5(o Options) (Fig5Result, error) {
	o = o.withDefaults()
	o.header("Figure 5", "dLog vs Bookkeeper (1 KB appends, synchronous disk)")
	o.printf("%-12s %8s %12s %10s\n", "system", "clients", "tput(ops/s)", "mean(ms)")

	var res Fig5Result
	for _, clients := range fig5ClientSteps {
		if clients > o.Clients {
			break
		}
		p, err := fig5DLog(o, clients)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, p)
		o.printf("%-12s %8d %12.0f %10.2f\n", p.System, p.Clients, p.OpsPerS, p.MeanMs)
	}
	for _, clients := range fig5ClientSteps {
		if clients > o.Clients {
			break
		}
		p, err := fig5Bookkeeper(o, clients)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, p)
		o.printf("%-12s %8d %12.0f %10.2f\n", p.System, p.Clients, p.OpsPerS, p.MeanMs)
	}
	return res, nil
}

// Fig5DLogPoint measures one dLog configuration (exported for the
// top-level Table 2 benchmark).
//
//lint:allow testonly BenchmarkTable2Operations (bench_test.go at the module root) drives it
func Fig5DLogPoint(o Options, clients int) (Fig5Point, error) {
	return fig5DLog(o.withDefaults(), clients)
}

func fig5DLog(o Options, clients int) (Fig5Point, error) {
	d := cluster.NewDeployment(nil)
	defer d.Close()
	// Two rings, three servers; acceptor logs on synchronous SSDs, ring
	// batching packs 1 KB appends into 32 KB packets (Section 7.3).
	c, err := d.StartDLog(cluster.DLogOptions{
		Logs:    2,
		Servers: 3,
		Global:  true,
		Ring: core.RingOptions{
			RetryInterval: 300 * time.Millisecond,
			SkipEnabled:   true,
			Delta:         5 * time.Millisecond,
			Lambda:        9000,
			BatchBytes:    32 << 10,
			Window:        64,
		},
		NewAcceptorLog: func(transport.RingID, transport.ProcessID) (storage.Log, error) {
			return storage.NewSimDisk(storage.NewMemLog(), storage.SSDSpec(), true, o.Scale), nil
		},
	})
	if err != nil {
		return Fig5Point{}, err
	}
	meter := metrics.NewMeter()
	hist := metrics.NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	payload := make([]byte, 1024)
	for t := 0; t < clients; t++ {
		dc, raw, err := c.NewClient()
		if err != nil {
			return Fig5Point{}, err
		}
		defer raw.Close()
		logID := dlog.LogID(t%2 + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				if _, err := dc.Append(logID, payload); err != nil {
					continue
				}
				hist.Record(time.Since(start))
				meter.Add(1, 1024)
			}
		}()
	}
	time.Sleep(o.Duration)
	close(stop)
	wg.Wait()
	ops, _ := meter.Rate()
	return Fig5Point{System: "dLog", Clients: clients, OpsPerS: ops, MeanMs: float64(hist.Mean()) / 1e6}, nil
}

func fig5Bookkeeper(o Options, clients int) (Fig5Point, error) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	b, err := baseline.StartBookLog(baseline.BookLogConfig{
		Net:           net,
		Ensemble:      3,
		FlushInterval: 20 * time.Millisecond,
		NewDisk: func() storage.Log {
			return storage.NewSimDisk(storage.NewMemLog(), storage.SSDSpec(), true, o.Scale)
		},
	})
	if err != nil {
		return Fig5Point{}, err
	}
	defer b.Stop()

	meter := metrics.NewMeter()
	hist := metrics.NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	payload := make([]byte, 1024)
	for t := 0; t < clients; t++ {
		bc := b.NewClient(transport.ProcessID(60000 + t))
		defer bc.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				if _, err := bc.Append(payload); err != nil {
					continue
				}
				hist.Record(time.Since(start))
				meter.Add(1, 1024)
			}
		}()
	}
	time.Sleep(o.Duration)
	close(stop)
	wg.Wait()
	ops, _ := meter.Rate()
	return Fig5Point{System: "Bookkeeper", Clients: clients, OpsPerS: ops, MeanMs: float64(hist.Mean()) / 1e6}, nil
}
