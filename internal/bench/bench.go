// Package bench regenerates every figure of the paper's evaluation
// (Section 8) against this repository's implementation:
//
//	Figure 3 — Multi-Ring Paxos baseline: throughput, latency, coordinator
//	           CPU and latency CDF across value sizes and storage modes.
//	Figure 4 — YCSB A–F: Cassandra model vs MRP-Store (independent rings)
//	           vs MRP-Store (global ring) vs MySQL model; workload F
//	           per-operation latency.
//	Figure 5 — dLog vs Bookkeeper model: throughput and latency vs number
//	           of client threads, synchronous disk writes.
//	Figure 6 — dLog vertical scalability: aggregate throughput and latency
//	           CDF vs number of rings, one disk per ring.
//	Figure 7 — MRP-Store horizontal scalability across four EC2 regions:
//	           aggregate throughput and latency CDF.
//	Figure 8 — recovery impact: throughput/latency timeline around a
//	           replica crash, checkpoints, log trimming and recovery.
//
// Absolute numbers come from an emulated substrate (see DESIGN.md), so the
// reproduction target is each figure's shape; EXPERIMENTS.md records
// paper-vs-measured values.
package bench

import (
	"fmt"
	"io"
	"syscall"
	"time"
)

// Options tunes all figure runners.
type Options struct {
	// Out receives the textual report (required).
	Out io.Writer
	// Duration is the measurement window per configuration.
	Duration time.Duration
	// Scale multiplies emulated latencies (disk and WAN). 1.0 is
	// realistic hardware; tests use smaller values for speed.
	Scale float64
	// Clients caps client-thread sweeps (paper figures use up to 200).
	Clients int
	// Records is the YCSB database size (paper: 1 GB of 1 KB records;
	// default scaled down).
	Records int
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Clients == 0 {
		o.Clients = 100
	}
	if o.Records == 0 {
		o.Records = 2000
	}
	return o
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// cpuTime reads the process's consumed CPU time (user+system). The paper
// reports coordinator CPU (Figure 3, bottom-left); in this in-process
// reproduction the whole deployment shares the process, with the
// coordinator dominating, so process CPU is the documented proxy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// header prints a figure banner.
func (o Options) header(fig, title string) {
	o.printf("\n=== %s: %s ===\n", fig, title)
}
