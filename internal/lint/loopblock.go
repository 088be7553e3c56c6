package lint

import (
	"go/ast"
	"go/types"
)

// LoopblockAnalyzer enforces the PR 5 contract: the ring event loop (the
// //lint:eventloop roots and everything they call on the same goroutine)
// must never block. It flags:
//
//   - bare channel sends (a send outside a select comm clause can block
//     forever on a slow receiver — exactly the slow-learner wedge the
//     pull-based delivery queue exists to prevent);
//   - time.Sleep;
//   - fsync ((*os.File).Sync, syscall.Fsync/Fdatasync) — durable writes
//     belong to the group-commit release function, reached through the
//     storage.Log interface, not inlined on the loop;
//   - I/O performed while holding a mutex (calls into os/net/bufio
//     between Lock and Unlock).
//
// Goroutines launched from the loop (`go ...`) are exempt by
// construction — they cannot block the loop.
var LoopblockAnalyzer = &Analyzer{
	Name: "loopblock",
	Doc:  "flags blocking operations reachable from //lint:eventloop roots",
	Run:  runLoopblock,
}

func runLoopblock(pass *Pass) {
	dirs := pass.Prog.directives()
	roots := sortedFuncs(dirs.eventloop)
	if len(roots) == 0 {
		return
	}
	g := pass.Prog.callgraph()
	reach := g.reachable(roots, false)
	for fn, root := range reach {
		n := g.nodes[fn]
		if n == nil || n.pkg != pass.Pkg {
			continue
		}
		checkLoopblock(pass, n, root)
	}
}

func checkLoopblock(pass *Pass, n *funcNode, root *types.Func) {
	// Sends appearing as a select comm clause are non-blocking by
	// construction (the select chooses among ready cases / default).
	selectComm := make(map[ast.Stmt]bool)
	ast.Inspect(n.decl, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectStmt); ok {
			for _, clause := range sel.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					selectComm[cc.Comm] = true
				}
			}
		}
		return true
	})

	ast.Inspect(n.decl, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			// A spawned goroutine cannot block the loop; arguments are
			// evaluated here but argument expressions cannot contain
			// statements other than func-lits, which run on the new
			// goroutine.
			return false
		case *ast.SendStmt:
			if !selectComm[x] {
				pass.Reportf(x.Pos(), "bare channel send on the event loop (reachable from %s): a slow receiver wedges the ring — use a select with default/done, or hand off to the delivery stage",
					root.FullName())
			}
		case *ast.CallExpr:
			callee := calleeOf(n.pkg, x)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			switch {
			case callee.Pkg().Path() == "time" && callee.Name() == "Sleep":
				pass.Reportf(x.Pos(), "time.Sleep on the event loop (reachable from %s): the loop must stay responsive — use the retry ticker or a timer case in the select",
					root.FullName())
			case isFsync(callee):
				pass.Reportf(x.Pos(), "fsync on the event loop (reachable from %s): durable writes belong to the group-commit path behind storage.Log",
					root.FullName())
			}
		}
		return true
	})

	checkLockHeldIO(pass, n, root)
}

func isFsync(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Sync" // (*os.File).Sync
	case "syscall":
		return fn.Name() == "Fsync" || fn.Name() == "Fdatasync"
	}
	return false
}

// checkLockHeldIO scans statement lists linearly: between a mutex Lock /
// RLock and the matching Unlock, calls into os/net/bufio are flagged.
// The scan is an approximation (it tracks one held flag, follows nested
// blocks, and treats a deferred Unlock as holding to function end) —
// good enough for the handler shapes on the loop, and cheap to reason
// about when it fires.
func checkLockHeldIO(pass *Pass, n *funcNode, root *types.Func) {
	var scan func(stmts []ast.Stmt, held bool) bool
	scan = func(stmts []ast.Stmt, held bool) bool {
		for _, stmt := range stmts {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					switch lockCallKind(n.pkg, call) {
					case "lock":
						held = true
						continue
					case "unlock":
						held = false
						continue
					}
				}
			case *ast.DeferStmt:
				if lockCallKind(n.pkg, s.Call) == "unlock" {
					// Unlock deferred: held for the rest of the function.
					continue
				}
			case *ast.BlockStmt:
				held = scan(s.List, held)
				continue
			case *ast.IfStmt:
				scan(s.Body.List, held)
				if els, ok := s.Else.(*ast.BlockStmt); ok {
					scan(els.List, held)
				}
				continue
			case *ast.ForStmt:
				scan(s.Body.List, held)
				continue
			case *ast.RangeStmt:
				scan(s.Body.List, held)
				continue
			}
			if held {
				reportHeldIO(pass, n, stmt, root)
			}
		}
		return held
	}
	if n.decl.Body != nil {
		scan(n.decl.Body.List, false)
	}
}

// reportHeldIO flags I/O calls syntactically inside stmt.
func reportHeldIO(pass *Pass, n *funcNode, stmt ast.Stmt, root *types.Func) {
	ast.Inspect(stmt, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(n.pkg, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "os", "net", "bufio":
			pass.Reportf(call.Pos(), "%s.%s called while holding a lock on the event loop (reachable from %s): I/O under a lock stalls every contender",
				callee.Pkg().Name(), callee.Name(), root.FullName())
		}
		return true
	})
}

// lockCallKind classifies a call as a sync mutex lock or unlock.
func lockCallKind(pkg *Package, call *ast.CallExpr) string {
	callee := calleeOf(pkg, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return ""
	}
	switch callee.Name() {
	case "Lock", "RLock":
		return "lock"
	case "Unlock", "RUnlock":
		return "unlock"
	}
	return ""
}
