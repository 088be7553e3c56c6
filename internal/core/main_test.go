package core

import (
	"testing"

	"amcast/internal/leakcheck"
)

// TestMain gates the package on goroutine-leak verification: a Stop path
// that strands the merge goroutine fails the whole test binary.
func TestMain(m *testing.M) { leakcheck.Main(m) }
