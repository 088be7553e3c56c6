package bench

import (
	"io"
	"testing"
	"time"
)

// TestCkptBenchShort smoke-tests the checkpoint benchmark with one small
// database size and a short window, including the JSON snapshot.
func TestCkptBenchShort(t *testing.T) {
	if testing.Short() {
		t.Skip("ckpt bench needs a measurement window")
	}
	oldSizes := ckptRecordCounts
	ckptRecordCounts = []int{512}
	defer func() { ckptRecordCounts = oldSizes }()

	// The window must comfortably exceed ckptEvery commands even on a
	// slow (race-instrumented) host, or no checkpoint interval elapses
	// and the run legitimately reports zero checkpoints.
	res, err := CkptBench(Options{Out: io.Discard, Duration: 800 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sizes) != 1 {
		t.Fatalf("sizes = %d, want 1", len(res.Sizes))
	}
	row := res.Sizes[0]
	if row.SteadyOpsPerS == 0 || row.Async.OpsPerS == 0 {
		t.Fatalf("empty measurement: %+v", row)
	}
	if row.Async.Checkpoints+row.Async.Coalesced == 0 {
		t.Fatalf("no checkpoints during measured runs: %+v", row)
	}
	path := t.TempDir() + "/ckpt.json"
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
}
