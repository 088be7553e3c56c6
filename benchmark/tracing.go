package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"amcast/internal/trace"
)

// The benchmark's own spans. spanOp covers one operation from its due time
// to its completion and is the root of its trace; spanSend covers the
// MulticastValueTraced call of the mcast workloads, which have no client
// stub to record a "submit" span for them.
const (
	spanOp   = "bench.op"
	spanSend = "bench.send"
)

// attachOps gives every "submit" span the program's client recorded the
// benchmark's own root span. The client draws the trace id inside Submit,
// so the operation is found by time: among the calls made on that client
// endpoint that contain the submit span, the one that began last before it
// (the stub enters Submit within microseconds of the call).
func attachOps(spans []trace.Span, r *run, clientProcs []string) []trace.Span {
	type call struct {
		start int64
		i     int
	}
	calls := make(map[string][]call, len(clientProcs))
	for i := 0; i < r.n; i++ {
		if r.callEnd[i] != 0 {
			p := clientProcs[r.client[i]]
			calls[p] = append(calls[p], call{r.callStart[i], i})
		}
	}
	for _, cs := range calls {
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
	}
	for _, s := range spans {
		if s.Name != "submit" {
			continue
		}
		cs := calls[s.Process]
		from, to := int64(s.Start.Sub(r.t0)), int64(s.Start.Add(s.Duration).Sub(r.t0))
		last := sort.Search(len(cs), func(k int) bool { return cs[k].start > from }) - 1
		for k := last; k >= 0 && k > last-2*poolSize; k-- {
			if i := cs[k].i; r.callEnd[i] >= to {
				spans = append(spans, trace.Span{
					TraceID: s.TraceID, SpanID: s.SpanID ^ 1, Name: spanOp, Process: "bench",
					Ring: s.Ring, ValueID: s.ValueID,
					Start: r.due(i), Duration: time.Duration(r.callEnd[i]) - r.dueOffset(i),
				})
				break
			}
		}
	}
	return spans
}

// segmentNames are the hops of one operation in causal order, from its due
// time to its completion. trace.wal_commit_us is not one of them: the
// acceptor's fsync runs inside vote → decide and is reported beside it.
var segmentNames = []string{
	"trace.due_to_submit_us", "trace.submit_to_forward_us", "trace.forward_to_vote_us",
	"trace.vote_to_decide_us", "trace.decide_to_merge_us", "trace.merge_to_apply_us",
	"trace.apply_to_reply_us",
}

// traceMetrics splits every complete trace into segments and reports the
// median of each, in µs, with the share of the operations' time that no
// segment covers. Merge and apply are read at the first replica to apply
// the value (the measuring learner on the mcast workloads, whose delivery
// handler stands for apply and reply).
func traceMetrics(spans []trace.Span) map[string]float64 {
	byTrace := make(map[uint64][]trace.Span)
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	segs := make([][]float64, len(segmentNames))
	var wal, unattributed []float64
	for _, ss := range byTrace {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start.Before(ss[j].Start) })
		first := func(name, process string) *trace.Span {
			for i := range ss {
				if ss[i].Name == name && (process == "" || ss[i].Process == process) {
					return &ss[i]
				}
			}
			return nil
		}
		op, submit, send := first(spanOp, ""), first("submit", ""), first(spanSend, "")
		forward, vote, apply := first("forward", ""), first("vote", ""), first("apply", "")
		if op == nil || forward == nil || vote == nil || (submit == nil) == (send == nil) {
			continue
		}
		done := op.Start.Add(op.Duration)
		at, applied, replied := op.Process, done, done // mcast
		if submit != nil {
			if apply == nil {
				continue
			}
			at, applied, replied = apply.Process, apply.Start, submit.Start.Add(submit.Duration)
		} else {
			submit = send
		}
		// Only the acceptor whose vote completes the quorum records "decide".
		decide, merge := first("decide", ""), first("merge", at)
		if decide == nil || merge == nil {
			continue
		}
		hops := []time.Time{op.Start, submit.Start, forward.Start, vote.Start, decide.Start, merge.Start, applied, replied}
		var covered float64
		for k := range segs {
			us := max(0, float64(hops[k+1].Sub(hops[k]))/1e3)
			segs[k] = append(segs[k], us)
			covered += us
		}
		if w := first("wal-commit", at); w != nil {
			wal = append(wal, float64(w.Duration)/1e3)
		}
		unattributed = append(unattributed, max(0, 1-covered/(float64(op.Duration)/1e3)))
	}
	out := map[string]float64{
		"trace.sampled":            float64(len(unattributed)),
		"trace.wal_commit_us":      median(wal),
		"trace.unattributed_share": median(unattributed),
	}
	for k, name := range segmentNames {
		out[name] = median(segs[k])
	}
	return out
}

func writeSpans(path string, spans []trace.Span) error {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].TraceID != spans[j].TraceID {
			return spans[i].TraceID < spans[j].TraceID
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
