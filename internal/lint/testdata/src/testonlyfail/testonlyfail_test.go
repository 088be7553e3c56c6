package testonlyfail

import "testing"

// TestOnlyTests is the one user of OnlyTests, Peek and Depth; the loader
// reads no test file, so none of these uses counts.
func TestOnlyTests(t *testing.T) {
	s := NewServer(ServerConfig{Depth: 2, Planted: 1})
	if OnlyTests() != 1 || s.Peek() != 3 {
		t.Fatal("unexpected")
	}
}
