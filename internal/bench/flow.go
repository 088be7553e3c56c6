package bench

import (
	"fmt"
	"sync"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/metrics"
	"amcast/internal/netem"
	"amcast/internal/transport"
)

// FlowLevelingRow is one rate-leveling configuration on the EC2 WAN
// topology: a hot group and an idle group merged by every learner, with
// the idle group's skip target either preset (static λ, the paper's
// Section 4 knob) or driven by the merge-stall feedback loop.
type FlowLevelingRow struct {
	Config string `json:"config"`
	// Lambda is the configured (initial) skip target, msgs/s.
	Lambda   int  `json:"lambda"`
	Adaptive bool `json:"adaptive"`
	// HotMsgsPerS is the merged delivered throughput of the hot group at
	// a fast learner — the number the idle ring's rate leveling caps.
	HotMsgsPerS float64 `json:"hot_msgs_per_s"`
	// SkipInstances counts instances the idle ring skipped during the
	// measurement (skip traffic through WAL and network).
	SkipInstances uint64 `json:"skip_instances"`
	// LambdaPeak / LambdaFinal track the idle ring's adaptive target.
	LambdaPeak  int `json:"lambda_peak"`
	LambdaFinal int `json:"lambda_final"`
	// StragglerStallMs is the total time the measuring learner's merge
	// waited on the idle ring.
	StragglerStallMs float64 `json:"straggler_stall_ms"`
}

// FlowIsolationRow compares a fast learner's delivered throughput with
// and without one slow replica on the same ring (the slow one sits on
// the majority vote path, the worst case for the old coupled loop).
type FlowIsolationRow struct {
	FastBaselineMsgsPerS float64 `json:"fast_baseline_msgs_per_s"`
	FastWithSlowMsgsPerS float64 `json:"fast_with_slow_msgs_per_s"`
	SlowMsgsPerS         float64 `json:"slow_msgs_per_s"`
	// IsolationRatio = FastWithSlow / FastBaseline; the acceptance bar
	// is >= 0.9 (one slow replica costs the others at most 10%).
	IsolationRatio float64 `json:"isolation_ratio"`
	// Slow replica's delivery-stage accounting: overruns into catch-up,
	// entries dropped at overrun and re-served via retransmission.
	Overruns       uint64 `json:"overruns"`
	DroppedEntries uint64 `json:"dropped_entries"`
	ServedEntries  uint64 `json:"served_entries"`
}

// FlowResult aggregates the flow-control benchmark (cmd/bench -flow).
type FlowResult struct {
	Topology  string            `json:"topology"`
	DurationS float64           `json:"duration_s"`
	Leveling  []FlowLevelingRow `json:"leveling"`
	// MissetVsTuned is a 4x-too-low static λ against the tuned one (0.25
	// before skip on stall, ≈ 1 since: the merge asks for the skips the
	// tick is short of); AdaptiveVsTuned must stay >= 0.9.
	MissetVsTuned   float64          `json:"misset_vs_tuned_ratio"`
	AdaptiveVsTuned float64          `json:"adaptive_vs_tuned_ratio"`
	Isolation       FlowIsolationRow `json:"isolation"`
}

// WriteJSON writes the result snapshot (for the CI trajectory).
func (r FlowResult) WriteJSON(path string) error {
	return writeResultJSON(path, r)
}

const (
	flowHotRing  transport.RingID = 1
	flowIdleRing transport.RingID = 2
	// flowTunedLambda is the well-tuned static skip target (the paper's
	// WAN setting); flowMissetLambda is the deliberately 4x-too-low one.
	flowTunedLambda  = 2000
	flowMissetLambda = flowTunedLambda / 4
	flowDeltaWAN     = 20 * time.Millisecond
)

// flowDeployment wires n processes across EC2 regions into the given
// rings (all roles everywhere) and returns the nodes in process order.
type flowDeployment struct {
	net   *transport.Network
	nodes []*core.Node
}

func (d *flowDeployment) close() {
	for _, n := range d.nodes {
		n.Stop()
	}
	d.net.Close()
}

func newFlowDeployment(o Options, rings []transport.RingID, ringOpts core.RingOptions, handlerOf func(i int) core.BatchHandler) (*flowDeployment, error) {
	topo := netem.EC2Topology()
	topo.SetScale(o.Scale)
	net := transport.NewNetwork(topo)
	svc := coord.NewService()
	const procs = 3
	for _, r := range rings {
		var members []coord.Member
		for i := 1; i <= procs; i++ {
			members = append(members, coord.Member{
				ID:    transport.ProcessID(i),
				Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner,
			})
		}
		if err := svc.CreateRing(r, members); err != nil {
			net.Close()
			return nil, err
		}
	}
	d := &flowDeployment{net: net}
	for i := 1; i <= procs; i++ {
		site := netem.EC2Regions[(i-1)%len(netem.EC2Regions)]
		router := transport.NewRouter(net.Attach(transport.ProcessID(i), site))
		node, err := core.New(core.Config{
			Self:   transport.ProcessID(i),
			Router: router,
			Coord:  svc,
			Ring:   ringOpts,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		for _, r := range rings {
			if err := node.Join(r); err != nil {
				d.close()
				return nil, err
			}
		}
		if err := node.SubscribeBatch(handlerOf(i-1), rings...); err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, node)
	}
	return d, nil
}

// flowPump multicasts fixed-size values to a group from several
// goroutines until stop closes, pacing lightly so the scheduler is not
// starved (the ring's pipeline window is the real throttle).
func flowPump(node *core.Node, group transport.RingID, threads int, stop <-chan struct{}, wg *sync.WaitGroup) {
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				payload := make([]byte, 64)
				_ = node.Multicast(group, payload)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
}

// levelingMeasure runs one rate-leveling configuration: group 1 hot,
// group 2 idle, merged by all three learners across the EC2 WAN.
func levelingMeasure(o Options, config string, lambda int, adaptive bool) (FlowLevelingRow, error) {
	meter := metrics.NewMeter()
	var peakMu sync.Mutex
	handlerOf := func(i int) core.BatchHandler {
		if i != 1 {
			return func([]core.Delivery) {}
		}
		// Process 2 is the measuring learner.
		return func(ds []core.Delivery) {
			var hot uint64
			for _, dd := range ds {
				if dd.Group == flowHotRing {
					hot++
				}
			}
			if hot > 0 {
				meter.Add(hot, hot*64)
			}
		}
	}
	ringOpts := core.RingOptions{
		RetryInterval: 100 * time.Millisecond,
		Window:        256,
		SkipEnabled:   true,
		Delta:         flowDeltaWAN,
		Lambda:        lambda,
		AdaptiveSkip:  adaptive,
	}
	if adaptive {
		ringOpts.LambdaMin = lambda / 4
		ringOpts.LambdaMax = 200000
	}
	d, err := newFlowDeployment(o, []transport.RingID{flowHotRing, flowIdleRing}, ringOpts, handlerOf)
	if err != nil {
		return FlowLevelingRow{}, err
	}
	defer d.close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	flowPump(d.nodes[0], flowHotRing, 8, stop, &wg)

	// Warm up (elections, adaptive convergence), then measure.
	warmup := o.Duration / 2
	if warmup > 2*time.Second {
		warmup = 2 * time.Second
	}
	time.Sleep(warmup)
	meter.Reset()
	_, skippedBefore, _ := d.nodes[0].RingStats(flowIdleRing)
	lambdaPeak, _ := d.nodes[0].RingLambdaNow(flowIdleRing)
	sampleStop := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-t.C:
				if lam, ok := d.nodes[0].RingLambdaNow(flowIdleRing); ok {
					peakMu.Lock()
					if lam > lambdaPeak {
						lambdaPeak = lam
					}
					peakMu.Unlock()
				}
			}
		}
	}()
	time.Sleep(o.Duration)
	rate, _ := meter.Rate()
	close(sampleStop)
	sampleWG.Wait()
	close(stop)
	wg.Wait()

	_, skippedAfter, _ := d.nodes[0].RingStats(flowIdleRing)
	lambdaFinal, _ := d.nodes[0].RingLambdaNow(flowIdleRing)
	row := FlowLevelingRow{
		Config:      config,
		Lambda:      lambda,
		Adaptive:    adaptive,
		HotMsgsPerS: rate,
		LambdaPeak:  lambdaPeak,
		LambdaFinal: lambdaFinal,
	}
	if skippedAfter > skippedBefore {
		row.SkipInstances = skippedAfter - skippedBefore
	}
	for _, st := range d.nodes[1].MergeStalls() {
		if st.Ring == flowIdleRing {
			row.StragglerStallMs = float64(st.Total) / 1e6
		}
	}
	return row, nil
}

// isolationMeasure runs one slow-replica configuration on a single ring:
// process 2 (the acceptor whose vote completes the majority — the worst
// spot for the old coupled event loop) consumes each delivery with an
// artificial delay when slow is set; process 1 is the measured fast
// learner.
func isolationMeasure(o Options, slow bool) (fastRate, slowRate float64, stats [3]uint64, err error) {
	fastMeter := metrics.NewMeter()
	slowMeter := metrics.NewMeter()
	handlerOf := func(i int) core.BatchHandler {
		switch i {
		case 0:
			return func(ds []core.Delivery) {
				fastMeter.Add(uint64(len(ds)), 0)
			}
		case 1:
			return func(ds []core.Delivery) {
				slowMeter.Add(uint64(len(ds)), 0)
				if slow {
					// ~500 msgs/s: an order of magnitude below the
					// ring's WAN decide rate.
					time.Sleep(time.Duration(len(ds)) * 2 * time.Millisecond)
				}
			}
		default:
			return func([]core.Delivery) {}
		}
	}
	ringOpts := core.RingOptions{
		RetryInterval: 100 * time.Millisecond,
		Window:        256,
		DeliverBuffer: 4096,
	}
	d, err := newFlowDeployment(o, []transport.RingID{flowHotRing}, ringOpts, handlerOf)
	if err != nil {
		return 0, 0, stats, err
	}
	defer d.close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	flowPump(d.nodes[0], flowHotRing, 8, stop, &wg)

	warmup := o.Duration / 2
	if warmup > 2*time.Second {
		warmup = 2 * time.Second
	}
	time.Sleep(warmup)
	fastMeter.Reset()
	slowMeter.Reset()
	time.Sleep(o.Duration)
	fastRate, _ = fastMeter.Rate()
	slowRate, _ = slowMeter.Rate()
	close(stop)
	wg.Wait()

	if fs, ok := d.nodes[1].RingFlowStats(flowHotRing); ok {
		stats = [3]uint64{fs.Overruns, fs.DroppedEntries, fs.ServedEntries}
	}
	return fastRate, slowRate, stats, nil
}

// FlowBench runs the end-to-end flow-control benchmark on the emulated
// EC2 WAN: (a) static-vs-adaptive rate leveling under a hot/idle group
// imbalance, (b) one-slow-replica isolation on a single ring.
func FlowBench(o Options) (FlowResult, error) {
	o = o.withDefaults()
	o.header("Flow control", fmt.Sprintf("adaptive rate leveling + slow-replica isolation (EC2 WAN scale %.2f)", o.Scale))
	res := FlowResult{Topology: "ec2-4-regions", DurationS: o.Duration.Seconds()}

	o.printf("%-28s %10s %14s %12s %10s %10s\n",
		"config", "λ(init)", "hot(msgs/s)", "skips", "λ(peak)", "stall(ms)")
	configs := []struct {
		name     string
		lambda   int
		adaptive bool
	}{
		{"static-tuned", flowTunedLambda, false},
		{"static-misset-4x-low", flowMissetLambda, false},
		{"adaptive-from-misset", flowMissetLambda, true},
	}
	rows := make(map[string]FlowLevelingRow, len(configs))
	for _, c := range configs {
		row, err := levelingMeasure(o, c.name, c.lambda, c.adaptive)
		if err != nil {
			return res, err
		}
		res.Leveling = append(res.Leveling, row)
		rows[c.name] = row
		o.printf("%-28s %10d %14.0f %12d %10d %10.1f\n",
			row.Config, row.Lambda, row.HotMsgsPerS, row.SkipInstances, row.LambdaPeak, row.StragglerStallMs)
	}
	if tuned := rows["static-tuned"].HotMsgsPerS; tuned > 0 {
		res.MissetVsTuned = rows["static-misset-4x-low"].HotMsgsPerS / tuned
		res.AdaptiveVsTuned = rows["adaptive-from-misset"].HotMsgsPerS / tuned
	}
	o.printf("mis-set λ vs tuned: %.2fx   adaptive vs tuned: %.2fx (bar: >= 0.90)\n",
		res.MissetVsTuned, res.AdaptiveVsTuned)

	fastBase, _, _, err := isolationMeasure(o, false)
	if err != nil {
		return res, err
	}
	fastSlow, slowRate, stats, err := isolationMeasure(o, true)
	if err != nil {
		return res, err
	}
	res.Isolation = FlowIsolationRow{
		FastBaselineMsgsPerS: fastBase,
		FastWithSlowMsgsPerS: fastSlow,
		SlowMsgsPerS:         slowRate,
		Overruns:             stats[0],
		DroppedEntries:       stats[1],
		ServedEntries:        stats[2],
	}
	if fastBase > 0 {
		res.Isolation.IsolationRatio = fastSlow / fastBase
	}
	o.printf("slow-replica isolation: baseline %.0f msgs/s, with slow replica %.0f msgs/s (ratio %.2f, bar: >= 0.90); slow consumed %.0f msgs/s, overruns=%d dropped=%d reserved=%d\n",
		fastBase, fastSlow, res.Isolation.IsolationRatio, slowRate, stats[0], stats[1], stats[2])
	return res, nil
}
