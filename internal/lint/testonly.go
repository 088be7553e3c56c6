package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestonlyAnalyzer is pay-or-delete as a lint. Under internal/ it reports
//
//   - every exported func, method, type, const and package-level var that
//     no non-test code uses, and
//   - every exported field of a *Config or *Options struct that no
//     non-test code sets outside that type's own defaulting method.
//
// The loader reads non-test files only, so every use it sees is a
// production use. Uses in consumer modules (benchmark/, a separate module
// the root ./... pattern does not reach) count too: AddConsumers loads
// them as second programs, and objects are matched across programs by
// package path, receiver and name. A method that satisfies an interface
// is not reported: its callers reach it through the interface. A symbol a
// test needs to observe a property stays, with
// `//lint:allow testonly <the test that needs it>`.
var TestonlyAnalyzer = &Analyzer{
	Name: "testonly",
	Doc:  "reports exported symbols no non-test code uses and config fields no non-test code sets",
	Run:  runTestonly,
}

// testonlyFacts is the whole-program use and set index, keyed by
// objKey so objects of different programs compare equal.
type testonlyFacts struct {
	used   map[string]bool // funcs, methods, types, consts, vars
	set    map[string]bool // config fields
	ifaces []*types.Interface
}

func runTestonly(pass *Pass) {
	if !strings.Contains(pass.Pkg.Path+"/", "/internal/") {
		return
	}
	facts := pass.Prog.testonly()
	scope := pass.Pkg.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !facts.used[objKey(obj)] {
			pass.Reportf(obj.Pos(), "%s %s has no non-test use: delete it, or keep it with //lint:allow testonly <the test that needs it>", kindOf(obj), name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if !m.Exported() || facts.used[objKey(m)] || facts.satisfiesInterface(named, m.Name()) {
				continue
			}
			pass.Reportf(m.Pos(), "method %s.%s has no non-test use: delete it, or keep it with //lint:allow testonly <the test that needs it>", name, m.Name())
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !isConfigName(name) {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Exported() && !facts.set[fieldKey(tn, f)] {
				pass.Reportf(f.Pos(), "field %s.%s is set by no non-test code outside its defaults: delete it, unexport it, or keep it with //lint:allow testonly <the test that sets it>", name, f.Name())
			}
		}
	}
}

// testonly builds (once) the use and set index over the program and its
// consumers.
func (prog *Program) testonly() *testonlyFacts {
	if prog.facts != nil {
		return prog.facts
	}
	facts := &testonlyFacts{used: make(map[string]bool), set: make(map[string]bool)}
	seen := make(map[*types.Interface]bool)
	for _, p := range append([]*Program{prog}, prog.consumers...) {
		for _, pkg := range p.allPackages() {
			indexUses(pkg, facts)
			collectInterfaces(pkg, facts, seen)
		}
	}
	prog.facts = facts
	return facts
}

// indexUses records every object pkg's files refer to, and every config
// field they set. A receiver's type is not a use of the type, and a field
// set inside its own type's defaulting method is not a set.
func indexUses(pkg *Package, facts *testonlyFacts) {
	recvIdents := make(map[*ast.Ident]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			var defaulting *types.TypeName
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				defaulting = defaultingType(pkg, fd)
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recvIdents[id] = true
					}
					return true
				})
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				for _, field := range setFields(pkg, n) {
					if owner := fieldOwner(field); owner != nil && owner != defaulting {
						facts.set[fieldKey(owner, field)] = true
					}
				}
				return true
			})
		}
	}
	for id, obj := range pkg.Info.Uses {
		if !recvIdents[id] {
			facts.used[objKey(obj)] = true
		}
	}
}

// setFields returns the struct fields node writes: keys of a composite
// literal (every field, for an unkeyed one), the targets of an
// assignment or ++/--, and a field whose address is taken.
func setFields(pkg *Package, n ast.Node) []*types.Var {
	var out []*types.Var
	sel := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := pkg.Info.Uses[s.Sel].(*types.Var); ok && v.IsField() {
				out = append(out, v)
			}
		}
	}
	switch x := n.(type) {
	case *ast.CompositeLit:
		st, ok := deref(pkg.Info.TypeOf(x)).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		for i, elt := range x.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				if i < st.NumFields() {
					out = append(out, st.Field(i))
				}
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				if v, ok := pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
					out = append(out, v)
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			sel(lhs)
		}
	case *ast.IncDecStmt:
		sel(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			sel(x.X)
		}
	}
	return out
}

// defaultingType returns the type whose defaulting method fd is (a
// method with "default" in its name), or nil.
func defaultingType(pkg *Package, fd *ast.FuncDecl) *types.TypeName {
	if !strings.Contains(strings.ToLower(fd.Name.Name), "default") {
		return nil
	}
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	if named, ok := deref(fn.Type().(*types.Signature).Recv().Type()).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// fieldOwner finds the *Config or *Options struct type of field's package
// that declares it; nil for fields of any other struct.
func fieldOwner(field *types.Var) *types.TypeName {
	field = field.Origin()
	if field.Pkg() == nil {
		return nil
	}
	scope := field.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !isConfigName(name) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn
			}
		}
	}
	return nil
}

// collectInterfaces gathers every interface type the program can see: the
// named interfaces of pkg and of everything it imports, and the interface
// types its expressions mention (anonymous ones included).
func collectInterfaces(pkg *Package, facts *testonlyFacts, seen map[*types.Interface]bool) {
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] && it.NumMethods() > 0 {
			seen[it] = true
			facts.ifaces = append(facts.ifaces, it)
		}
	}
	var visit func(p *types.Package, done map[*types.Package]bool)
	visit = func(p *types.Package, done map[*types.Package]bool) {
		if done[p] {
			return
		}
		done[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp, done)
		}
	}
	visit(pkg.Pkg, make(map[*types.Package]bool))
	add(types.Universe.Lookup("error").Type())
	for _, tv := range pkg.Info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
}

// satisfiesInterface reports whether named (or a pointer to it)
// implements a known interface that declares a method called name.
func (facts *testonlyFacts) satisfiesInterface(named *types.Named, name string) bool {
	ptr := types.NewPointer(named)
	for _, it := range facts.ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// objKey names obj by package path, receiver and name, so the same
// declaration loaded by two programs gets the same key.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named, ok := deref(recv.Type()).(*types.Named); ok {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func fieldKey(owner *types.TypeName, field *types.Var) string {
	return owner.Pkg().Path() + "." + owner.Name() + "." + field.Name()
}

func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
