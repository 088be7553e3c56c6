// Package testonlyfail holds exported symbols and config fields the
// testonly analyzer must report.
package testonlyfail

import "errors"

// OnlyTests is called from testonlyfail_test.go alone.
func OnlyTests() int { return 1 } // want `func OnlyTests has no non-test use`

// Orphan is used by nothing.
type Orphan struct{} // want `type Orphan has no non-test use`

// Limit is used by nothing.
const Limit = 3 // want `const Limit has no non-test use`

// ErrGone is used by nothing.
var ErrGone = errors.New("gone") // want `var ErrGone has no non-test use`

// Server is what start builds.
type Server struct{ n int }

// NewServer builds a server from its defaulted config.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{n: cfg.Depth + cfg.Planted + len(cfg.Name)}
}

// Peek is called from tests alone.
func (s *Server) Peek() int { return s.n } // want `method Server.Peek has no non-test use`

// ServerConfig configures a Server.
type ServerConfig struct {
	// Depth is set only by its own type's defaults.
	Depth int // want `field ServerConfig.Depth is set by no non-test code outside its defaults`
	// Planted is an option nothing sets: it is read, never written.
	Planted int // want `field ServerConfig.Planted is set by no non-test code outside its defaults`
	// Name is set by start.
	Name string
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Depth == 0 {
		c.Depth = 8
	}
	return c
}

// start is the package's production entry point.
func start() *Server { return NewServer(ServerConfig{Name: "a"}) }

var _ = start
