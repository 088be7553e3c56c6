package storage

import (
	"testing"

	"amcast/internal/leakcheck"
)

// TestMain gates the package on goroutine-leak verification and on the
// buffer pool reporting zero outstanding buffers.
func TestMain(m *testing.M) { leakcheck.Main(m) }
