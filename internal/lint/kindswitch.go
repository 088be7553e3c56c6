package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// KindswitchAnalyzer enforces exhaustive message dispatch: every switch
// whose tag is the transport.Kind enum must either handle every declared
// Kind constant or carry an explicit default clause. Adding a message
// kind without wiring it through the routers and handlers then fails
// lint instead of silently dropping traffic.
//
// It also requires every Kind constant to have a sender and a handler in
// non-test code. A handler names the kind in a switch case or compares a
// kind with it; a sender uses it as a value anywhere else (a message
// literal, an assignment, a call argument). A map or array key, such as
// the name table's, is neither. A kind that nothing sends is a dead wire
// number: retire it with `_` so later kinds keep theirs.
//
// The enum is identified structurally — a defined type named Kind in a
// package named transport — so the analyzer also works against fixture
// packages.
var KindswitchAnalyzer = &Analyzer{
	Name: "kindswitch",
	Doc:  "requires transport.Kind switches to be exhaustive or explicitly defaulted",
	Run:  runKindswitch,
}

func runKindswitch(pass *Pass) {
	checkKindUses(pass)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			sw, ok := node.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := pass.Pkg.Info.TypeOf(sw.Tag)
			named := kindEnumType(tagType)
			if named == nil {
				return true
			}
			all := enumConstants(named)
			if len(all) == 0 {
				return true
			}
			handled := make(map[string]bool)
			hasDefault := false
			for _, clause := range sw.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if c := constName(pass.Pkg.Info, e); c != "" {
						handled[c] = true
					}
				}
			}
			if hasDefault {
				return true
			}
			var missing []string
			for _, c := range all {
				if !handled[c.Name()] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(), "switch on %s.Kind is not exhaustive and has no default: missing %s — handle them or add an explicit default stating why they cannot arrive here",
					named.Obj().Pkg().Name(), strings.Join(missing, ", "))
			}
			return true
		})
	}
}

// checkKindUses reports, in the package declaring the Kind enum, every
// kind that no non-test code sends or handles.
func checkKindUses(pass *Pass) {
	tn, ok := pass.Pkg.Pkg.Scope().Lookup("Kind").(*types.TypeName)
	if !ok {
		return
	}
	named := kindEnumType(tn.Type())
	if named == nil {
		return
	}
	uses := pass.Prog.kindUses()
	for _, c := range enumConstants(named) {
		var missing []string
		if !uses.sent[c] {
			missing = append(missing, "sends")
		}
		if !uses.handled[c] {
			missing = append(missing, "handles")
		}
		if len(missing) > 0 {
			pass.Reportf(c.Pos(), "nothing outside tests %s %s: wire it up, or retire it with `_` to keep later kinds' numbers",
				strings.Join(missing, " or "), c.Name())
		}
	}
}

// kindUseFacts records which Kind constants non-test code sends and
// handles.
type kindUseFacts struct {
	sent, handled map[*types.Const]bool
}

// kindUses classifies (once) every use of a Kind constant in the program.
func (prog *Program) kindUses() *kindUseFacts {
	if prog.kinds != nil {
		return prog.kinds
	}
	k := &kindUseFacts{sent: make(map[*types.Const]bool), handled: make(map[*types.Const]bool)}
	for _, pkg := range prog.allPackages() {
		for _, f := range pkg.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				parent := ast.Node(nil)
				if len(stack) > 0 {
					parent = stack[len(stack)-1]
				}
				stack = append(stack, n)
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				c, ok := pkg.Info.Uses[id].(*types.Const)
				if !ok || kindEnumType(c.Type()) == nil {
					return true
				}
				// transport.KindX: classify by the selector's parent.
				var expr ast.Expr = id
				if sel, ok := parent.(*ast.SelectorExpr); ok && sel.Sel == id {
					expr = sel
					if len(stack) > 2 {
						parent = stack[len(stack)-3]
					}
				}
				switch p := parent.(type) {
				case *ast.CaseClause:
					k.handled[c] = true
				case *ast.BinaryExpr:
					if p.Op == token.EQL || p.Op == token.NEQ {
						k.handled[c] = true
					} else {
						k.sent[c] = true
					}
				case *ast.KeyValueExpr:
					if p.Key != expr {
						k.sent[c] = true
					}
				default:
					k.sent[c] = true
				}
				return true
			})
		}
	}
	prog.kinds = k
	return k
}

// kindEnumType returns t as the transport Kind enum type, or nil.
func kindEnumType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "Kind" || obj.Pkg() == nil || obj.Pkg().Name() != "transport" {
		return nil
	}
	return named
}

// enumConstants lists the constants of the enum type declared in its
// package, ordered by value.
func enumConstants(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		vi, _ := constant.Uint64Val(out[i].Val())
		vj, _ := constant.Uint64Val(out[j].Val())
		return vi < vj
	})
	return out
}

// constName resolves a case expression to the constant it names.
func constName(info *types.Info, e ast.Expr) string {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	}
	if c, ok := obj.(*types.Const); ok {
		return c.Name()
	}
	return ""
}
