// Package lint implements the repo's protocol-invariant static analysis:
// a small go/analysis-style framework (self-contained — the module has no
// external dependencies, so golang.org/x/tools is deliberately not used)
// plus the analyzers All lists: deterministic execution scopes, a
// non-blocking ring event loop, exhaustive transport.Kind dispatch with a
// sender and a handler for every kind, log-before-forward release of
// staged sends, pooled-buffer ownership, the file-size ratchet, and
// pay-or-delete for exported symbols and config fields (testonly). See
// cmd/lint for the multichecker entry point.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked module package under analysis.
type Package struct {
	Path  string
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Program is the whole type-checked module: every requested package plus
// all module-internal dependencies, with a shared FileSet so positions are
// comparable across packages. Analyzers that need interprocedural facts
// (call-graph reachability from annotated roots) compute them once per
// Program and cache them here.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // topological order, dependencies first
	ByPath   map[string]*Package

	// consumers are separately loaded modules whose uses of this
	// program's packages count as non-test uses (see AddConsumers).
	consumers []*Program

	dirs  *directives
	graph *callGraph
	facts *testonlyFacts
	kinds *kindUseFacts
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns (resolved by the go
// tool relative to dir, which must lie inside the module). Standard-
// library dependencies are imported from compiler export data out of the
// build cache; module packages are parsed and type-checked from source so
// analyzers can see function bodies across the whole module.
func Load(dir string, patterns ...string) (*Program, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Standard,DepOnly,Export,GoFiles,Imports,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var mod []*listedPkg // non-standard: type-check from source
	exports := make(map[string]string)
	byPath := make(map[string]*listedPkg)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		pp := p
		byPath[p.ImportPath] = &pp
		if p.Standard {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			continue
		}
		mod = append(mod, &pp)
	}

	prog := &Program{
		Fset:   token.NewFileSet(),
		ByPath: make(map[string]*Package),
	}
	imp := &progImporter{
		prog:    prog,
		gc:      gcImporter(prog.Fset, exports),
		exports: exports,
	}

	for _, lp := range topoSort(mod) {
		var files []*ast.File
		for _, f := range lp.GoFiles {
			af, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, f), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, af)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		conf := types.Config{
			Importer: imp,
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
		}
		tpkg, err := conf.Check(lp.ImportPath, prog.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		p := &Package{Path: lp.ImportPath, Pkg: tpkg, Info: info, Files: files}
		prog.ByPath[lp.ImportPath] = p
		if !lp.DepOnly {
			prog.Packages = append(prog.Packages, p)
		}
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })
	return prog, nil
}

// AddConsumers loads every module nested under root (a directory below
// it with its own go.mod, outside testdata) as a consumer of prog. The go
// tool's ./... pattern stops at a nested module, so without this a symbol
// only benchmark/ uses would look dead to the testonly analyzer.
func (prog *Program) AddConsumers(root string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err != nil {
			return nil
		}
		c, err := Load(path, "./...")
		if err != nil {
			return err
		}
		prog.consumers = append(prog.consumers, c)
		return filepath.SkipDir
	})
}

// topoSort orders module packages dependencies-first so each type-check
// finds its module imports already checked.
func topoSort(pkgs []*listedPkg) []*listedPkg {
	byPath := make(map[string]*listedPkg, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	var out []*listedPkg
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *listedPkg)
	visit = func(p *listedPkg) {
		if state[p.ImportPath] != 0 {
			return
		}
		state[p.ImportPath] = 1
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		out = append(out, p)
	}
	// Deterministic traversal order.
	sorted := append([]*listedPkg(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, p := range sorted {
		visit(p)
	}
	return out
}

// gcImporter builds a compiler-export-data importer backed by the build
// cache paths `go list -export` reported.
func gcImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// progImporter resolves imports during type-checking: module packages come
// from the already-checked Program, everything else from export data.
type progImporter struct {
	prog    *Program
	gc      types.Importer
	exports map[string]string
}

func (i *progImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.prog.ByPath[path]; ok {
		return p.Pkg, nil
	}
	return i.gc.Import(path)
}
