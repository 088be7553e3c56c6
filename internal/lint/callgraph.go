package lint

import (
	"go/ast"
	"go/types"
)

// callGraph is the static call graph over every function declared with a
// body in the analyzed module. Edges are resolved through types.Info, so
// only statically known callees appear: direct function calls, concrete
// method calls, and references to named functions passed as values
// (assumed to be invoked synchronously by their consumer — conservative
// for determinism, and in practice correct for the sort.Slice-style
// callbacks the code uses). Interface method calls resolve to the
// interface's *types.Func, which has no body here and is
// therefore a dead end; the analyzers lean on that deliberately (e.g. the
// sanctioned storage.Log.PutBatch call in the ring's release function is
// an interface call, so WAL internals are not dragged into the event-loop
// reachability set).
//
// Calls launched with `go` are kept as separate edges: a goroutine
// spawned from the event loop does not block the loop, but work spawned
// inside a deterministic scope still feeds replicated state.
type callGraph struct {
	nodes map[*types.Func]*funcNode
}

type funcNode struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	pkg     *Package
	calls   []*types.Func // same-goroutine edges (incl. defers, func-lit bodies)
	goCalls []*types.Func // callees launched via `go`
}

// callgraph builds (once) the program-wide call graph.
func (prog *Program) callgraph() *callGraph {
	if prog.graph != nil {
		return prog.graph
	}
	g := &callGraph{nodes: make(map[*types.Func]*funcNode)}
	for _, pkg := range prog.allPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &funcNode{fn: fn, decl: fd, pkg: pkg}
				collectEdges(pkg, fd.Body, false, n)
				g.nodes[fn] = n
			}
		}
	}
	prog.graph = g
	return g
}

// collectEdges walks body attributing call edges to n. Function literals
// are inlined into the enclosing declaration (their bodies run on the
// same goroutine unless launched with `go`); inGo marks subtrees that
// execute on a spawned goroutine. Every identifier resolving to a
// *types.Func adds an edge, which covers calls, method calls, and
// function/method values passed as callbacks in one rule (duplicates are
// harmless — reachability is a set computation).
func collectEdges(pkg *Package, body ast.Node, inGo bool, n *funcNode) {
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			// The callee runs on a new goroutine; its arguments are
			// evaluated here. Walk arguments normally, the callee (and a
			// launched func-lit body) as go-edges.
			if fn := calleeOf(pkg, x.Call); fn != nil {
				n.goCalls = append(n.goCalls, fn)
			}
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				collectEdges(pkg, lit.Body, true, n)
			}
			for _, arg := range x.Call.Args {
				collectEdges(pkg, arg, inGo, n)
			}
			return false
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				n.addEdge(fn, inGo)
			}
		}
		return true
	})
}

func (n *funcNode) addEdge(fn *types.Func, inGo bool) {
	if inGo {
		n.goCalls = append(n.goCalls, fn)
	} else {
		n.calls = append(n.calls, fn)
	}
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes (nil for func-value calls, conversions, and builtins).
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// reachable computes the functions reachable from roots. includeGo also
// follows `go`-launched edges (determinism wants them; loopblock must
// not — a spawned goroutine cannot block the loop).
func (g *callGraph) reachable(roots []*types.Func, includeGo bool) map[*types.Func]*types.Func {
	// Value is the root each function was first reached from, for
	// diagnostic attribution.
	seen := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, r := range roots {
		if _, ok := seen[r]; !ok {
			seen[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		n := g.nodes[fn]
		if n == nil {
			continue
		}
		edges := n.calls
		if includeGo {
			edges = append(append([]*types.Func(nil), edges...), n.goCalls...)
		}
		for _, callee := range edges {
			if _, ok := seen[callee]; !ok {
				seen[callee] = seen[fn]
				queue = append(queue, callee)
			}
		}
	}
	return seen
}
