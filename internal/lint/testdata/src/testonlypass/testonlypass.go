// Package testonlypass holds exported symbols the testonly analyzer must
// leave alone.
package testonlypass

import "fmt"

// Shape is implemented by Square; Total reaches Area through it.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ Side int }

// Area satisfies Shape: it is called through the interface only.
func (s Square) Area() int { return s.Side * s.Side }

// String satisfies fmt.Stringer.
func (s Square) String() string { return fmt.Sprint("square ", s.Side) }

// Total sums the areas.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// Debug is a hook a test needs.
//
//lint:allow testonly TestDebugHook reads it
func Debug() int { return 0 }

// ConsumerOnly is used by the consumer module alone.
func ConsumerOnly() int { return 2 }

// Options is set by Spec's defaults, which are not its own: a use.
type Options struct {
	Depth int
}

// Spec wraps Options, as a chaos campaign spec wraps a cluster's.
type Spec struct {
	Opts Options
}

func (s *Spec) withDefaults() {
	if s.Opts.Depth == 0 {
		s.Opts.Depth = 4
	}
}

// Run defaults the spec and runs it.
func Run(s Spec) int {
	s.withDefaults()
	return s.Opts.Depth
}
