// Command mrpstore runs an MRP-Store cluster (Section 6.1) in a single
// process and serves an interactive command shell on stdin, so the
// partitioned, strongly consistent key-value store can be exercised by
// hand.
//
// Usage:
//
//	mrpstore -partitions 3 -replicas 3 -global
//	mrpstore -obs 127.0.0.1:8090 -trace-sample 100
//
// With -obs the process serves the observability endpoints: Prometheus
// metrics on /metrics, JSON ring state on /debug/rings, assembled traces
// on /debug/traces and /debug/trace/<id>, and pprof under /debug/pprof/.
// -trace-sample N samples every Nth client submission end to end
// (0 disables tracing, 1 traces everything).
//
// Shell commands (Table 1 of the paper):
//
//	insert <key> <value>
//	read   <key>
//	lread  <key>                     # read-index local read (no multicast)
//	sread  <key> <bound>             # bounded-staleness read, e.g. 100ms
//	update <key> <value>
//	delete <key>
//	scan   <lo> <hi>
//	lscan  <lo> <hi>                 # local scan, per-partition boundaries
//	crash  <partition> <replica>     # fail a replica
//	restart <partition> <replica>    # recover it (checkpoint + catch-up)
//	quit
package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"flag"

	"amcast/internal/cluster"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mrpstore:", err)
		os.Exit(1)
	}
}

func run() error {
	partitions := flag.Int("partitions", 3, "number of partitions")
	replicas := flag.Int("replicas", 3, "replicas per partition")
	global := flag.Bool("global", true, "add a global ring for ordered scans")
	rangePart := flag.Bool("range", false, "range partitioning (default hash)")
	obsAddr := flag.String("obs", "", "serve /metrics, /debug and pprof endpoints on this address (e.g. 127.0.0.1:8090)")
	traceSample := flag.Uint64("trace-sample", 0, "trace every Nth client submission (0 = off, 1 = all)")
	flag.Parse()

	d := cluster.NewDeployment(nil)
	defer d.Close()
	d.SetTraceSampling(*traceSample)
	kind := store.HashPartitioned
	if *rangePart {
		kind = store.RangePartitioned
	}
	c, err := d.StartStore(cluster.StoreOptions{
		Partitions:      *partitions,
		Replicas:        *replicas,
		Global:          *global,
		Kind:            kind,
		CheckpointEvery: 100,
		RecoveryTimeout: 2 * time.Second,
		Ring: core.RingOptions{
			SkipEnabled: true,
			Delta:       5 * time.Millisecond,
			Lambda:      9000,
			BatchBytes:  32 << 10,
		},
	})
	if err != nil {
		return err
	}
	if *obsAddr != "" {
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return fmt.Errorf("obs listener: %w", err)
		}
		fmt.Printf("observability on http://%s/metrics\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, c.ObsMux()); err != nil {
				fmt.Fprintln(os.Stderr, "mrpstore: obs server:", err)
			}
		}()
	}
	sc, raw, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		return err
	}
	defer raw.Close()

	fmt.Printf("MRP-Store up: %d partitions x %d replicas (global ring: %v)\n",
		*partitions, *replicas, *global)
	fmt.Println("commands: insert|read|lread|sread|update|delete|scan|lscan|crash|restart|quit")

	sc2 := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc2.Scan() {
			return nil
		}
		fields := strings.Fields(sc2.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return nil
		case "insert", "update":
			if len(fields) != 3 {
				fmt.Println("usage:", fields[0], "<key> <value>")
				continue
			}
			var err error
			if fields[0] == "insert" {
				err = sc.Insert(fields[1], []byte(fields[2]))
			} else {
				err = sc.Update(fields[1], []byte(fields[2]))
			}
			report(err, "ok")
		case "read", "lread":
			if len(fields) != 2 {
				fmt.Println("usage:", fields[0], "<key>")
				continue
			}
			var (
				v   []byte
				ok  bool
				err error
			)
			if fields[0] == "read" {
				v, ok, err = sc.Read(fields[1])
			} else {
				v, ok, err = sc.ReadLocal(fields[1])
			}
			printRead(v, ok, err)
		case "sread":
			if len(fields) != 3 {
				fmt.Println("usage: sread <key> <bound>  (e.g. sread k 100ms)")
				continue
			}
			bound, err := time.ParseDuration(fields[2])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			v, ok, err := sc.ReadStale(fields[1], bound)
			printRead(v, ok, err)
		case "delete":
			if len(fields) != 2 {
				fmt.Println("usage: delete <key>")
				continue
			}
			report(sc.Delete(fields[1]), "ok")
		case "scan", "lscan":
			if len(fields) != 3 {
				fmt.Println("usage:", fields[0], "<lo> <hi>")
				continue
			}
			var (
				entries []store.Entry
				err     error
			)
			if fields[0] == "scan" {
				entries, err = sc.Scan(fields[1], fields[2])
			} else {
				entries, err = sc.ScanLocal(fields[1], fields[2])
			}
			if err != nil {
				report(err, "")
				continue
			}
			for _, e := range entries {
				fmt.Printf("%s = %s\n", e.Key, e.Value)
			}
			fmt.Printf("(%d entries)\n", len(entries))
		case "crash":
			p, r, ok := parsePR(fields)
			if !ok {
				continue
			}
			c.Crash(p, r)
			fmt.Printf("replica %d of partition %d terminated\n", r, p)
		case "restart":
			p, r, ok := parsePR(fields)
			if !ok {
				continue
			}
			report(c.Restart(p, r), "recovering")
		default:
			fmt.Println("unknown command", fields[0])
		}
	}
}

func parsePR(fields []string) (int, int, bool) {
	if len(fields) != 3 {
		fmt.Println("usage:", fields[0], "<partition> <replica>")
		return 0, 0, false
	}
	p, err1 := strconv.Atoi(fields[1])
	r, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil {
		fmt.Println("partition and replica must be integers")
		return 0, 0, false
	}
	return p, r, true
}

func printRead(v []byte, ok bool, err error) {
	switch {
	case err != nil:
		fmt.Println("error:", err)
	case !ok:
		fmt.Println("(not found)")
	default:
		fmt.Printf("%s\n", v)
	}
}

func report(err error, okMsg string) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if okMsg != "" {
		fmt.Println(okMsg)
	}
}
