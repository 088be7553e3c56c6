package bench

import (
	"fmt"
	"sync"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/core"
	"amcast/internal/dlog"
	"amcast/internal/metrics"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// Fig6Point is one ring-count step of Figure 6.
type Fig6Point struct {
	Rings       int
	OpsPerS     float64 // aggregate append throughput
	ScalePct    float64 // relative to the previous step (the paper's %)
	Disk1CDF    []metrics.CDFPoint
	Disk1MeanMs float64
}

// Fig6Result aggregates the figure.
type Fig6Result struct {
	Points []Fig6Point
}

// Fig6 reproduces Figure 6: dLog vertical scalability in asynchronous
// mode. Each added ring gets its own (emulated) disk; learners subscribe
// to the k log rings plus a common ring; throughput should scale near
// linearly with rings.
func Fig6(o Options) (Fig6Result, error) {
	o = o.withDefaults()
	o.header("Figure 6", "dLog vertical scalability (async disks, one per ring, 1 KB appends in 32 KB batches)")
	o.printf("%6s %14s %10s %14s\n", "rings", "tput(ops/s)", "scale(%)", "disk1 mean(ms)")

	var res Fig6Result
	prev := 0.0
	for rings := 1; rings <= 5; rings++ {
		p, err := fig6Run(o, rings)
		if err != nil {
			return res, err
		}
		if prev > 0 {
			p.ScalePct = 100 * (p.OpsPerS / float64(rings)) / (prev / float64(rings-1))
		} else {
			p.ScalePct = 100
		}
		prev = p.OpsPerS
		res.Points = append(res.Points, p)
		o.printf("%6d %14.0f %10.0f %14.2f\n", p.Rings, p.OpsPerS, p.ScalePct, p.Disk1MeanMs)
	}
	o.printf("\nLatency CDF (appends to ring 1):\n")
	for _, p := range res.Points {
		o.printf("  %d ring(s):", p.Rings)
		for _, pt := range p.Disk1CDF {
			o.printf(" %.0f%%@%.1fms", pt.Fraction*100, float64(pt.Latency)/1e6)
		}
		o.printf("\n")
	}
	return res, nil
}

func fig6Run(o Options, rings int) (Fig6Point, error) {
	d := cluster.NewDeployment(nil)
	defer d.Close()
	// One asynchronous emulated disk per ring per server, as in the
	// paper's 5-disk acceptors.
	type ringDisk struct {
		ring transport.RingID
		self transport.ProcessID
	}
	var mu sync.Mutex
	disks := make(map[ringDisk]storage.Log)
	c, err := d.StartDLog(cluster.DLogOptions{
		Logs:    rings,
		Servers: 3,
		Global:  true,
		Ring: core.RingOptions{
			RetryInterval: 300 * time.Millisecond,
			SkipEnabled:   true,
			Delta:         5 * time.Millisecond,
			Lambda:        9000,
			BatchBytes:    32 << 10,
			Window:        128,
		},
		NewAcceptorLog: func(ring transport.RingID, self transport.ProcessID) (storage.Log, error) {
			mu.Lock()
			defer mu.Unlock()
			k := ringDisk{ring, self}
			if l, ok := disks[k]; ok {
				return l, nil
			}
			l := storage.NewSimDisk(storage.NewMemLog(), storage.HDDSpec(), false, o.Scale)
			disks[k] = l
			return l, nil
		},
	})
	if err != nil {
		return Fig6Point{}, err
	}

	meter := metrics.NewMeter()
	disk1 := metrics.NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	payload := make([]byte, 1024)
	// Every ring brings the same closed-loop writers at every step, so the
	// offered load grows with the rings (Clients is the 5-ring total, 20 a
	// ring at the default); dividing a fixed total among the rings would
	// hold the load constant and measure what a merged ring costs in CPU.
	writersPerRing := max(1, min(o.Clients/5, 20))
	for r := 1; r <= rings; r++ {
		for t := 0; t < writersPerRing; t++ {
			dc, raw, err := c.NewClient()
			if err != nil {
				return Fig6Point{}, err
			}
			defer raw.Close()
			logID := dlog.LogID(r)
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
					if logID == 1 {
						disk1.Record(time.Since(start))
					}
					meter.Add(1, 1024)
				}
			}()
		}
	}
	time.Sleep(o.Duration)
	close(stop)
	wg.Wait()
	ops, _ := meter.Rate()
	if ops == 0 {
		return Fig6Point{}, fmt.Errorf("bench: fig6 with %d rings made no progress", rings)
	}
	return Fig6Point{
		Rings:       rings,
		OpsPerS:     ops,
		Disk1CDF:    disk1.CDF(8),
		Disk1MeanMs: float64(disk1.Mean()) / 1e6,
	}, nil
}
