package lint

import "path/filepath"

// FileSizeAnalyzer is the file-size ratchet: a non-test file may not exceed
// maxFileLines, and a file listed in fileCeilings may not exceed its
// ceiling. A ceiling above its file's length is reported too, so a change
// that shrinks a listed file lowers the ceiling with it. Ceilings may be
// lowered, never raised; CI compares the table against the base branch.
var FileSizeAnalyzer = &Analyzer{
	Name: "filesize",
	Doc:  "flags non-test files longer than 700 lines or than their committed ceiling",
	Run:  runFileSize,
}

const maxFileLines = 700

// fileCeilings lists the files over maxFileLines, by package path and file
// name, each with its length when its ceiling was last lowered.
var fileCeilings = map[string]int{
	"amcast/internal/cluster/cluster.go": 788,
	"amcast/internal/core/core.go":       854,
	"amcast/internal/smr/replica.go":     810,
	"amcast/internal/store/store.go":     1070,
	// Fixtures: a file over its ceiling, and one under it.
	"amcast/internal/lint/testdata/src/filesizefail/over.go":  4,
	"amcast/internal/lint/testdata/src/filesizefail/under.go": 20,
}

func runFileSize(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		tf := pass.Prog.Fset.File(f.Pos())
		lines := tf.LineCount()
		ceiling, listed := fileCeilings[pass.Pkg.Path+"/"+filepath.Base(tf.Name())]
		switch {
		case !listed && lines > maxFileLines:
			pass.Reportf(f.Package, "%d lines, over the %d-line limit: split the file", lines, maxFileLines)
		case listed && lines > ceiling:
			pass.Reportf(f.Package, "%d lines, over its ceiling of %d: split the file, do not raise the ceiling", lines, ceiling)
		case listed && lines < ceiling:
			pass.Reportf(f.Package, "%d lines, under its ceiling of %d: lower the ceiling to %d, or remove it at %d lines or fewer",
				lines, ceiling, lines, maxFileLines)
		}
	}
}
