package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// An Analyzer checks one protocol invariant. Run is invoked once per
// analyzed package; interprocedural analyzers share whole-program state
// (annotations, call graph) cached on the Program and report only the
// diagnostics positioned inside the current package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass carries one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Options configures a Run.
type Options struct {
	// ReportUnusedAllows adds a diagnostic for every //lint:allow that
	// suppressed nothing. Enabled by cmd/lint (stale suppressions rot);
	// disabled by the fixture tests, which run analyzers one at a time.
	ReportUnusedAllows bool
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		LoopblockAnalyzer,
		KindswitchAnalyzer,
		LogBeforeForwardAnalyzer,
		BufownAnalyzer,
		FileSizeAnalyzer,
		TestonlyAnalyzer,
	}
}

// Run executes the analyzers over every package of prog, applies
// //lint:allow suppressions, and returns the surviving diagnostics sorted
// by position. Suppressions with an empty reason are themselves reported:
// an unexplained allow defeats the point of machine-checked invariants.
func Run(prog *Program, analyzers []*Analyzer, opts Options) []Diagnostic {
	dirs := prog.directives()
	var raw []Diagnostic
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &raw}
			a.Run(pass)
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if al := dirs.allowFor(d); al != nil {
			al.used = true
			continue
		}
		out = append(out, d)
	}

	// Framework-level hygiene diagnostics.
	for _, al := range dirs.allows {
		if al.reason == "" {
			out = append(out, Diagnostic{
				Analyzer: "lint",
				Pos:      al.pos,
				Message:  fmt.Sprintf("//lint:allow %s is missing a reason — every suppression must explain itself", al.analyzer),
			})
			continue
		}
		if opts.ReportUnusedAllows && !al.used {
			out = append(out, Diagnostic{
				Analyzer: "lint",
				Pos:      al.pos,
				Message:  fmt.Sprintf("//lint:allow %s suppresses nothing — remove the stale directive", al.analyzer),
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// pathEnclosing returns the innermost FuncDecl containing pos in pkg, or
// nil.
func (p *Package) enclosingFunc(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
					return fd
				}
			}
		}
	}
	return nil
}
