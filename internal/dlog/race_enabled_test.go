//go:build race

package dlog

// raceEnabled lets allocation-sensitive tests skip under the race
// detector, whose instrumentation inflates alloc counts.
const raceEnabled = true
