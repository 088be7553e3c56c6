//go:build !race

package storage

// raceEnabled lets allocation-sensitive tests skip under the race
// detector, whose instrumentation inflates alloc counts.
const raceEnabled = false
