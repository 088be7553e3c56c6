package lint

import (
	"regexp"
	"strings"
	"testing"
)

// The fixture convention mirrors analysistest: a `// want` comment with
// one or more backtick-quoted regexps expects matching diagnostics on
// its line. Every diagnostic must be expected and every expectation must
// fire; failing fixtures prove each analyzer still catches its
// violation class, passing fixtures pin down what must stay legal.

const fixtureRoot = "./testdata/src/"

var wantRx = regexp.MustCompile("`([^`]+)`")

type wantKey struct {
	file string
	line int
}

// collectWants parses // want comments from every analyzed file.
func collectWants(t *testing.T, prog *Program) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, m := range wantRx.FindAllStringSubmatch(text, -1) {
						rx, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						k := wantKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], rx)
					}
				}
			}
		}
	}
	return wants
}

// runFixture loads the named fixture packages, runs the analyzers, and
// checks the diagnostics against the fixtures' want comments.
func runFixture(t *testing.T, analyzers []*Analyzer, pkgs ...string) {
	t.Helper()
	patterns := make([]string, len(pkgs))
	for i, p := range pkgs {
		patterns[i] = fixtureRoot + p
	}
	prog, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", pkgs, err)
	}
	checkFixture(t, prog, analyzers)
}

// checkFixture runs the analyzers over prog and checks the diagnostics
// against its fixtures' want comments.
func checkFixture(t *testing.T, prog *Program, analyzers []*Analyzer) {
	t.Helper()
	diags := Run(prog, analyzers, Options{})
	wants := collectWants(t, prog)

	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		ok := false
		for _, rx := range wants[k] {
			if rx.MatchString(d.Message) {
				matched[rx] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, rxs := range wants {
		for _, rx := range rxs {
			if !matched[rx] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, rx)
			}
		}
	}
}

func TestDeterminismFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{DeterminismAnalyzer}, "determfail", "determpass")
}

func TestLoopblockFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{LoopblockAnalyzer}, "loopblockfail", "loopblockpass")
}

func TestKindswitchFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{KindswitchAnalyzer}, "kindswitchfail", "kindswitchpass")
}

func TestLogBeforeForwardFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{LogBeforeForwardAnalyzer}, "logfwdfail", "logfwdpass")
}

func TestBufownFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{BufownAnalyzer}, "bufownfail", "bufownpass")
}

func TestFileSizeFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{FileSizeAnalyzer}, "filesizefail")
}

// TestKindUseFixtures checks kindswitch's second rule: every kind needs
// a sender and a handler outside tests.
func TestKindUseFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{KindswitchAnalyzer}, "kindusefail/transport", "kindusepass/transport")
}

// TestTestonlyFixtures loads testonlyconsumer as a second program, as
// cmd/lint loads benchmark/: its uses of testonlypass must count.
func TestTestonlyFixtures(t *testing.T) {
	prog, err := Load(".", fixtureRoot+"testonlyfail", fixtureRoot+"testonlypass")
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := Load(".", fixtureRoot+"testonlyconsumer")
	if err != nil {
		t.Fatal(err)
	}
	prog.consumers = append(prog.consumers, consumer)
	checkFixture(t, prog, []*Analyzer{TestonlyAnalyzer})
}

// TestTestonlyWithoutConsumer: without the consumer program, the symbols
// only it uses read as test-only, which is why cmd/lint loads benchmark/.
func TestTestonlyWithoutConsumer(t *testing.T) {
	prog, err := Load(".", fixtureRoot+"testonlypass")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range Run(prog, []*Analyzer{TestonlyAnalyzer}, Options{}) {
		got = append(got, d.Message)
	}
	for _, name := range []string{"func ConsumerOnly", "func Run", "func Total"} {
		found := false
		for _, m := range got {
			found = found || strings.HasPrefix(m, name+" ")
		}
		if !found {
			t.Errorf("no finding for %s without its consumer; got %q", name, got)
		}
	}
}

// TestFullSuiteOnFixtures runs the analyzers together over every
// fail/pass fixture, proving they do not interfere (an eventloop root in
// the logfwd fixtures must not trip loopblock, and vice versa). testonly
// runs on its own fixtures only: the other fixture packages are roots
// nothing imports, so every export in them reads as test-only.
func TestFullSuiteOnFixtures(t *testing.T) {
	var suite []*Analyzer
	for _, a := range All() {
		if a != TestonlyAnalyzer {
			suite = append(suite, a)
		}
	}
	runFixture(t, suite,
		"determfail", "determpass",
		"loopblockfail", "loopblockpass",
		"kindswitchfail", "kindswitchpass",
		"kindusefail/transport", "kindusepass/transport",
		"logfwdfail", "logfwdpass",
		"bufownfail", "bufownpass",
		"filesizefail",
	)
}

// TestAllowHygiene checks the framework's suppression rules: an allow
// with no reason suppresses its diagnostic but is itself reported, and a
// reasoned allow that suppresses nothing is reported as stale.
func TestAllowHygiene(t *testing.T) {
	prog, err := Load(".", fixtureRoot+"allowcases")
	if err != nil {
		t.Fatalf("loading allowcases: %v", err)
	}
	diags := Run(prog, []*Analyzer{DeterminismAnalyzer}, Options{ReportUnusedAllows: true})
	var got []string
	for _, d := range diags {
		if d.Analyzer != "lint" {
			t.Errorf("suppressed diagnostic leaked: %s", d)
			continue
		}
		got = append(got, d.Message)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 hygiene diagnostics, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0], "missing a reason") {
		t.Errorf("first hygiene diagnostic = %q, want missing-reason report", got[0])
	}
	if !strings.Contains(got[1], "suppresses nothing") {
		t.Errorf("second hygiene diagnostic = %q, want stale-allow report", got[1])
	}
}

// TestRepoIsClean is the acceptance gate in test form: the analyzer
// suite must exit clean over the whole module, with no unexplained and
// no stale suppressions.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if err := prog.AddConsumers("../.."); err != nil {
		t.Fatalf("loading consumer modules: %v", err)
	}
	diags := Run(prog, All(), Options{ReportUnusedAllows: true})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestAnnotationRoots pins the protocol scopes the suite guards: if a
// refactor renames or drops one of these roots, the lint gate would
// silently stop checking it — fail loudly instead.
func TestAnnotationRoots(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	dirs := prog.directives()
	if len(dirs.eventloop) == 0 {
		t.Error("no //lint:eventloop roots found: the ring event loop is unguarded")
	}
	if len(dirs.release) == 0 {
		t.Error("no //lint:release function found: log-before-forward is unguarded")
	}
	if len(dirs.pooled) == 0 {
		t.Error("no //lint:pooled roots found: pooled-buffer ownership is unguarded")
	}
	var det []string
	for fn := range dirs.deterministic {
		det = append(det, fn.FullName())
	}
	for _, need := range []string{
		"core.Node).merge",
		"store.SM).ExecuteBatch",
		"dlog.SM).ExecuteBatch",
		"smr.Replica).deliverBatch",
	} {
		found := false
		for _, name := range det {
			if strings.Contains(name, need) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no //lint:deterministic root matching %q (have %v)", need, det)
		}
	}
}
