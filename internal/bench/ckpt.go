package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/metrics"
	"amcast/internal/netem"
	"amcast/internal/recovery"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// CkptRow is one (mode, state size) measurement of the checkpoint
// benchmark: an MRP-Store partition serving a closed-loop update workload
// while checkpointing continuously.
type CkptRow struct {
	Mode string `json:"mode"`
	// OpsPerS is client-observed update throughput while checkpoints are
	// being taken.
	OpsPerS float64 `json:"ops_per_s"`
	// ThroughputVsSteady is OpsPerS over the same workload's throughput
	// with checkpoints disabled (1.0 = checkpoints are free).
	ThroughputVsSteady float64 `json:"throughput_vs_steady"`
	// P99Ms / MaxMs are client-observed update latencies.
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// MaxStallMs is the longest a checkpoint capture blocked the delivery
	// goroutine, maxed over the partition's replicas.
	MaxStallMs float64 `json:"max_delivery_stall_ms"`
	// Checkpoints / Coalesced count durable writes and captures
	// superseded before being written, summed over replicas.
	Checkpoints uint64 `json:"durable_checkpoints"`
	Coalesced   uint64 `json:"coalesced_captures"`
}

// CkptSizeRow is the checkpoint pipeline against its checkpoint-free
// control at one database size.
type CkptSizeRow struct {
	Records    int `json:"records"`
	StateBytes int `json:"state_bytes"`
	// SteadyOpsPerS is the checkpoint-free control run.
	SteadyOpsPerS float64 `json:"steady_ops_per_s"`
	// Async is the COW capture + background writer pipeline.
	Async CkptRow `json:"cow_async"`
}

// CkptResult aggregates the checkpoint benchmark (cmd/bench -ckpt).
type CkptResult struct {
	Workload  string        `json:"workload"`
	DurationS float64       `json:"duration_s"`
	Sizes     []CkptSizeRow `json:"sizes"`
}

// WriteJSON writes the result snapshot (for the CI trajectory).
func (r CkptResult) WriteJSON(path string) error {
	return writeResultJSON(path, r)
}

const (
	// ckptValueBytes is the stored value size; records × value ≈ state.
	ckptValueBytes = 256
	// ckptEvery is the commands-per-checkpoint cadence during measured
	// runs — low enough that several checkpoints land in every window.
	ckptEvery = 2000
	// ckptWorkers is the closed-loop client thread count.
	ckptWorkers = 4
)

// ckptRecordCounts are the database sizes compared (~256 KB, ~2 MB and
// ~8 MB of serialized state) — enough spread to show the capture stall
// staying flat while the state grows.
var ckptRecordCounts = []int{1024, 8192, 32768}

// CkptBench measures how much checkpointing disturbs delivery: for each
// database size it runs the same closed-loop update workload twice —
// checkpoints off (steady control) and the COW-capture + background-writer
// pipeline — and reports throughput, client-observed p99/max latency and
// the longest delivery stall a checkpoint caused. Checkpoints go to real
// files (write + fsync + rename + dir fsync).
func CkptBench(o Options) (CkptResult, error) {
	o = o.withDefaults()
	o.header("Checkpoint", "delivery impact: COW-async checkpoint pipeline vs no checkpoints")
	o.printf("%-10s %9s %12s %10s %9s %9s %11s %6s %6s\n",
		"mode", "records", "state", "ops/s", "vs-steady", "p99(ms)", "stall(ms)", "ckpts", "coal")

	res := CkptResult{
		Workload: fmt.Sprintf("1 partition x 3 replicas, %d closed-loop update clients, %d B values, checkpoint every %d cmds, FileStore checkpoints",
			ckptWorkers, ckptValueBytes, ckptEvery),
		DurationS: o.Duration.Seconds(),
	}
	for _, records := range ckptRecordCounts {
		row := CkptSizeRow{Records: records, StateBytes: records * (ckptValueBytes + 16)}
		steady, err := ckptRun(o, records, 0)
		if err != nil {
			return res, err
		}
		row.SteadyOpsPerS = steady.OpsPerS
		if row.Async, err = ckptRun(o, records, ckptEvery); err != nil {
			return res, err
		}
		if steady.OpsPerS > 0 {
			row.Async.ThroughputVsSteady = row.Async.OpsPerS / steady.OpsPerS
		}
		res.Sizes = append(res.Sizes, row)
		r := row.Async
		o.printf("%-10s %9d %12d %10.0f %9.2f %9.2f %11.3f %6d %6d\n",
			r.Mode, records, row.StateBytes, r.OpsPerS, r.ThroughputVsSteady,
			r.P99Ms, r.MaxStallMs, r.Checkpoints, r.Coalesced)
	}
	return res, nil
}

// ckptRun boots one store partition, preloads records and drives the
// update workload for o.Duration. checkpointEvery 0 is the steady control.
func ckptRun(o Options, records, checkpointEvery int) (CkptRow, error) {
	mode := "steady"
	if checkpointEvery > 0 {
		mode = "cow-async"
	}
	row := CkptRow{Mode: mode}

	ckptDir, err := os.MkdirTemp("", "amcast-ckptbench-*")
	if err != nil {
		return row, err
	}
	defer func() { _ = os.RemoveAll(ckptDir) }()

	d := cluster.NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(cluster.StoreOptions{
		Partitions:      1,
		Replicas:        3,
		CheckpointEvery: checkpointEvery,
		NewCheckpointStore: func(self transport.ProcessID) (recovery.Store, error) {
			return recovery.NewFileStore(filepath.Join(ckptDir, fmt.Sprintf("p%d", self)))
		},
	})
	if err != nil {
		return row, err
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		return row, err
	}
	defer cl.Close()

	// Preload through consensus in batched inserts.
	value := make([]byte, ckptValueBytes)
	for i := range value {
		value[i] = byte(i)
	}
	const batch = 256
	for base := 0; base < records; base += batch {
		n := batch
		if base+n > records {
			n = records - base
		}
		ops := make([]store.Op, n)
		for i := range ops {
			ops[i] = store.Op{Kind: store.OpInsert, Key: ckptKey(base + i), Value: value}
		}
		if _, err := sc.Batch(1, ops); err != nil {
			return row, fmt.Errorf("bench: ckpt preload: %w", err)
		}
	}

	// Baselines after preload, so the reported counters cover only the
	// measured window. (Preload runs in OpBatch commands — far fewer
	// commands than a checkpoint interval — but stay exact regardless.)
	var baseCkpts, baseCoalesced [3]uint64
	for r := 1; r <= 3; r++ {
		rep := c.Server(1, r).Replica()
		baseCkpts[r-1] = rep.CheckpointCount()
		baseCoalesced[r-1] = rep.CheckpointsCoalesced()
	}

	// Closed-loop update workload.
	lat := metrics.NewHistogram()
	var ops atomic.Uint64
	stop := make(chan struct{})
	errs := make(chan error, ckptWorkers)
	var wg sync.WaitGroup
	for w := 0; w < ckptWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint32(w)*2654435761 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*1664525 + 1013904223
				key := ckptKey(int(rng) % records)
				start := time.Now()
				if err := sc.Update(key, value); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				lat.Record(time.Since(start))
				ops.Add(1)
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(o.Duration)
	elapsed := time.Since(start).Seconds()
	total := ops.Load()
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		return row, fmt.Errorf("bench: ckpt %s worker: %w", mode, err)
	default:
	}

	row.OpsPerS = float64(total) / elapsed
	row.P99Ms = float64(lat.Quantile(0.99)) / float64(time.Millisecond)
	row.MaxMs = float64(lat.Max()) / float64(time.Millisecond)
	for r := 1; r <= 3; r++ {
		rep := c.Server(1, r).Replica()
		if s := rep.CheckpointStallMax(); float64(s)/float64(time.Millisecond) > row.MaxStallMs {
			row.MaxStallMs = float64(s) / float64(time.Millisecond)
		}
		row.Checkpoints += rep.CheckpointCount() - baseCkpts[r-1]
		row.Coalesced += rep.CheckpointsCoalesced() - baseCoalesced[r-1]
	}
	if total == 0 {
		return row, fmt.Errorf("bench: ckpt %s executed nothing", mode)
	}
	return row, nil
}

func ckptKey(i int) string { return fmt.Sprintf("user%08d", i) }
