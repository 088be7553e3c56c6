// Package leakcheck verifies at test-main exit that no goroutines
// leaked. It is a dependency-free stand-in for go.uber.org/goleak (the
// module deliberately has no external dependencies): after m.Run it
// snapshots all goroutine stacks, filters the known-benign ones, and
// retries with backoff so goroutines that are mid-shutdown get a chance
// to finish before being declared leaked.
//
// A leak here is almost always a Stop/Close path that forgot to join a
// goroutine — exactly the class of bug that turns into a resource-
// exhaustion incident in a long-running replica, which is why the
// heavyweight packages (ring, smr, cluster, chaos) gate on it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"amcast/internal/bufpool"
)

// benign matches goroutine stacks that are part of the test harness or
// runtime rather than code under test.
var benign = []string{
	"leakcheck.suspicious(", // this snapshotting goroutine
	"testing.Main(",         // the test main goroutine
	"testing.(*M).",         // m.Run internals
	"testing.runFuzzing(",   // fuzzing harness
	"testing.runFuzzTests(", // fuzz seed harness
	"created by testing.",   // tRunner parents waiting on subtests
	"os/signal.",            // signal handling loop
	"runtime.ReadTrace",     // execution tracer
	"runtime.ensureSigM",    // signal mask goroutine
}

// Main runs the package's tests and then fails the process if goroutines
// leaked. Use from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
//lint:allow testonly every package's TestMain (main_test.go) runs its tests through it
func Main(m *testing.M) {
	code := m.Run()
	if code != 0 {
		os.Exit(code)
	}
	if leaked := Check(5 * time.Second); leaked != "" {
		fmt.Fprintf(os.Stderr, "leakcheck: goroutines leaked after tests:\n\n%s\n", leaked)
		os.Exit(1)
	}
	if n := CheckBuffers(5 * time.Second); n != 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d pool buffers still outstanding after tests (missing Release)\n", n)
		os.Exit(1)
	}
	os.Exit(0)
}

// CheckBuffers polls until the process-wide buffer pool reports zero
// outstanding buffers or the deadline passes, returning the final count.
// Every bufpool.Get/Copy must be balanced by a final Release by the time
// the owning component stops; a nonzero count at test exit is a refcount
// leak on the pooled delivery path.
func CheckBuffers(deadline time.Duration) int64 {
	delay := 1 * time.Millisecond
	for end := time.Now().Add(deadline); ; {
		n := bufpool.Outstanding()
		if n == 0 || time.Now().After(end) {
			return n
		}
		// Release can trail a Stop by a scheduling beat (drain
		// goroutines): back off and re-read instead of flaking.
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// Check polls until no suspicious goroutines remain or the deadline
// passes, returning the offending stacks ("" when clean). Exported so
// individual tests can assert mid-run cleanliness around a Stop call.
func Check(deadline time.Duration) string {
	var leaked []string
	delay := 1 * time.Millisecond
	for end := time.Now().Add(deadline); ; {
		leaked = suspicious()
		if len(leaked) == 0 || time.Now().After(end) {
			break
		}
		// Shutdown is asynchronous in places (deferred closes, drain
		// goroutines): back off and re-snapshot instead of flaking.
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
	return strings.Join(leaked, "\n\n")
}

// suspicious snapshots all goroutine stacks and returns the non-benign
// ones. runtime.Stack with all=true already excludes system goroutines
// (GC workers and the like).
func suspicious() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
stacks:
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.TrimSpace(g) == "" {
			continue
		}
		for _, b := range benign {
			if strings.Contains(g, b) {
				continue stacks
			}
		}
		out = append(out, g)
	}
	return out
}
