package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/dlog"
	"amcast/internal/netem"
	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/storage"
	"amcast/internal/store"
	"amcast/internal/transport"
	"amcast/internal/ycsb"
)

// Isolated probes: each calls one layer's public functions directly and
// times them from outside, so a change inside a layer shows here before
// (and whether or not) it shows end to end.

const (
	probeRepeats = 5
	probeRecords = 10000 // × 1 KB: the store workloads' database, a 10 MB snapshot
	probeBatch   = 512   // commands per ExecuteBatch, the replicas' batch bound
)

// timePer returns the median over probeRepeats of the time fn takes per
// item, in ns. Each repeat calls fn with a growing item count until d has
// passed, then rests three times as long: a second or two of both cores busy
// changes how the kernel places the threads of the process started next
// (README.md, "one vCPU or two"), and that run is somebody's measurement.
func timePer(d time.Duration, fn func(n int)) float64 {
	per := make([]float64, probeRepeats)
	for rep := range per {
		if rep > 0 {
			time.Sleep(3 * d)
		}
		n, items, total := 1, 0, time.Duration(0)
		for total < d {
			began := time.Now()
			fn(n)
			took := time.Since(began)
			total, items = total+took, items+n
			if took < d/8 {
				n *= 2
			}
		}
		per[rep] = float64(total) / float64(items)
	}
	return median(per)
}

// runProbes spends about budget on all probes, split evenly.
func runProbes(budget time.Duration, seed int64, scratch string) (map[string]float64, error) {
	dir, err := os.MkdirTemp(scratch, "probes-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	const probes = 17
	d := budget / probes / probeRepeats
	out := make(map[string]float64, probes)
	kb := make([]byte, payloadLen)

	// transport
	net := transport.NewNetwork(nil)
	defer net.Close()
	out["transport.net_rtt_us"] = echoRTT(d, net.Attach(1, netem.SiteLocal), net.Attach(2, netem.SiteLocal)) / 1e3
	a, err := transport.ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() { _ = a.Close() }()
	b, err := transport.ListenTCP(2, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() { _ = b.Close() }()
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())
	out["transport.tcp_rtt_us"] = echoRTT(d, a, b) / 1e3
	out["transport.tcp_stream_msgs_per_cpu_s"] = tcpStream(d, a, b)
	msg := transport.Message{Kind: transport.KindPhase2, Ring: 1, Instance: 7, Value: transport.Value{ID: 9, Count: 1, Data: kb}}
	var wire []byte
	out["transport.codec_ns_per_msg"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			wire = msg.AppendEncode(wire[:0])
			if _, err := transport.DecodeMessage(wire); err != nil {
				panic(err) // the encoder's own output
			}
		}
	})

	// storage
	wal, err := storage.OpenWAL(filepath.Join(dir, "wal"), storage.WALOptions{Mode: storage.SyncEveryPut})
	if err != nil {
		return nil, err
	}
	defer func() { _ = wal.Close() }()
	recs := make([]storage.Record, 32)
	var inst uint64
	var walErr error
	out["storage.wal_commit_us"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			for k := range recs {
				inst++
				recs[k] = storage.Record{Instance: inst, Data: kb}
			}
			if err := wal.PutBatch(recs); err != nil {
				walErr = err
			}
		}
	}) / 1e3
	if walErr != nil {
		return nil, fmt.Errorf("wal probe: %w", walErr)
	}
	var got uint64
	out["storage.wal_get_us"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			got = got%inst + 1
			if _, ok := wal.Get(got); !ok {
				walErr = fmt.Errorf("instance %d missing", got)
			}
		}
	}) / 1e3
	if walErr != nil {
		return nil, fmt.Errorf("wal probe: %w", walErr)
	}
	mem := storage.NewMemLog()
	var put uint64
	out["storage.memlog_put_ns"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			put++
			_ = mem.Put(put, kb) // a MemLog put cannot fail while the log is open
			if put%4096 == 0 {
				_ = mem.Trim(put - 1024)
			}
		}
	})

	out["bufpool.get_release_ns"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			bufpool.Get(payloadLen).Release()
		}
	})
	cmd := smr.Command{Client: 20001, Seq: 1, Op: kb}
	out["smr.command_codec_ns"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			cmd.Seq++
			if _, err := smr.DecodeCommand(cmd.Encode()); err != nil {
				panic(err) // the encoder's own output
			}
		}
	})

	// store: a preloaded state machine and YCSB-A batches against it
	sm := store.NewSM()
	load := make([][]byte, 0, probeRecords)
	for _, op := range preloadOps(probeRecords, 0) {
		load = append(load, op.Encode())
	}
	sm.ExecuteBatch(nil, load)
	factory, err := ycsb.NewFactory(ycsb.Config{Workload: ycsb.WorkloadA, Records: probeRecords, Seed: seed})
	if err != nil {
		return nil, err
	}
	gen := factory.Generator(0)
	batch, reads := make([][]byte, probeBatch), make([][]byte, probeBatch)
	for i := range batch {
		op := gen.Next()
		reads[i] = store.Op{Kind: store.OpRead, Key: op.Key}.Encode()
		batch[i] = reads[i]
		if op.Type == ycsb.OpUpdate {
			batch[i] = store.Op{Kind: store.OpUpdate, Key: op.Key, Value: kb}.Encode()
		}
	}
	out["store.apply_us_per_op"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			sm.ExecuteBatch(nil, batch)
		}
	}) / probeBatch / 1e3
	out["store.read_local_ns"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			sm.ReadLocal(1, reads[i%probeBatch])
		}
	})
	var snap []byte
	out["store.snapshot_ms"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			snap = sm.CaptureSnapshot().Serialize()
		}
	}) / 1e6
	var restoreErr error
	out["store.restore_ms"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			if err := store.NewSM().Restore(snap); err != nil {
				restoreErr = err
			}
		}
	}) / 1e6
	if restoreErr != nil {
		return nil, fmt.Errorf("restore probe: %w", restoreErr)
	}

	appends := make([][]byte, probeBatch)
	for i := range appends {
		appends[i] = dlog.Op{Kind: dlog.OpAppend, Log: 1, Value: kb}.Encode()
	}
	out["dlog.apply_us_per_op"] = timePer(d, func(n int) {
		// A fresh log per call: appended entries stay in memory.
		lsm := dlog.NewSM(dlog.SMConfig{Hosted: []dlog.LogID{1}})
		for i := 0; i < n; i++ {
			lsm.ExecuteBatch(nil, appends)
		}
	}) / probeBatch / 1e3

	// recovery: a checkpoint of that 10 MB snapshot
	ckpt := recovery.Checkpoint{Vector: recovery.Vector{1: 1}, State: snap}
	files, err := recovery.NewFileStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	var saveErr error
	out["recovery.filestore_save_ms"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			ckpt.Vector[1]++
			if err := files.Save(ckpt); err != nil {
				saveErr = err
			}
		}
	}) / 1e6
	if saveErr != nil {
		return nil, fmt.Errorf("checkpoint probe: %w", saveErr)
	}
	out["recovery.ckpt_codec_ms"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := recovery.DecodeCheckpoint(ckpt.Encode()); err != nil {
				panic(err) // the encoder's own output
			}
		}
	}) / 1e6

	// load: what the generator itself costs per operation (YCSB key
	// choice and the hand-over to a worker), to read cpu_us_per_op net of it
	idle := newRun(1, 0, time.Second, false)
	idle.t0 = time.Now()
	sink := newPool(idle, 1, func(int, job) bool { return true })
	out["load.gen_ns_per_op"] = timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			sink.queue <- job{i: 0, kind: kindRead, key: gen.Next().Key}
		}
	})
	sink.stop()
	return out, nil
}

// echoRTT times a 1 KB message from a to b and back.
func echoRTT(d time.Duration, a, b transport.Transport) float64 {
	stop := make(chan struct{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			select {
			case m := <-b.Recv():
				_ = b.Send(a.ID(), transport.Message{Kind: transport.KindResponse, Payload: m.Payload})
				m.ReleaseRefs()
			case <-stop:
				return
			}
		}
	}()
	ns := timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			_ = a.Send(b.ID(), transport.Message{Kind: transport.KindResponse, Payload: make([]byte, payloadLen)})
			recvOne(a)
		}
	})
	close(stop)
	<-echoed
	return ns
}

// recvOne takes one message off tr. A message the transport lost (it may:
// links are fair-lossy) costs the probe a second instead of hanging it.
func recvOne(tr transport.Transport) {
	select {
	case m := <-tr.Recv():
		m.ReleaseRefs()
	case <-time.After(time.Second):
	}
}

// tcpStream pushes batches of 64 × 1 KB messages from a to b and returns
// messages moved per second of process CPU (both ends), the figure that
// stays steady when the host is busy.
func tcpStream(d time.Duration, a, b *transport.TCPNode) float64 {
	const burst = 64
	var sent float64
	cpu := cpuTime()
	timePer(d, func(n int) {
		for i := 0; i < n; i++ {
			msgs := make([]transport.Message, burst)
			for k := range msgs {
				msgs[k] = transport.Message{Kind: transport.KindResponse, To: b.ID(), Payload: make([]byte, payloadLen)}
			}
			_ = a.SendBatch(msgs)
			for k := 0; k < burst; k++ {
				recvOne(b)
			}
			sent += burst
		}
	})
	return sent / (cpuTime() - cpu).Seconds()
}
