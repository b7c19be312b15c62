package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture packages under testdata carry expected-diagnostic comments:
//
//	stmt() // want:poolcheck "fragment of the message"
//
// want-next expects the diagnostic on the line below the comment (used when
// the flagged line cannot carry a second comment, e.g. a lint:ignore
// directive that is itself diagnosed as malformed).
var wantRe = regexp.MustCompile(`//\s*want(-next)?:(\w+)\s+"([^"]*)"`)

type wantDiag struct {
	file     string // base name
	line     int
	analyzer string
	substr   string
}

var (
	loaderOnce sync.Once
	testLoader *Loader
)

// fixtureLoader shares one Loader (and its package cache) across tests.
func fixtureLoader() *Loader {
	loaderOnce.Do(func() { testLoader = NewLoader() })
	return testLoader
}

// loadFixture type-checks the fixture package in dir as importPath, the
// path that puts it where the analyzer's PathPrefixes apply. go list
// decides which of the directory's files belong to the package.
func loadFixture(t *testing.T, dir, importPath string) (*Package, []string) {
	t.Helper()
	l := fixtureLoader()
	listed, err := l.Load("./" + dir)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	var files []string
	for _, f := range listed[0].Files {
		files = append(files, l.fset.File(f.Pos()).Name())
	}
	pkg, err := l.check(importPath, files)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return pkg, files
}

func parseWants(t *testing.T, files []string) []wantDiag {
	t.Helper()
	var wants []wantDiag
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			ln := i + 1
			if m[1] == "-next" {
				ln++
			}
			wants = append(wants, wantDiag{file: filepath.Base(f), line: ln, analyzer: m[2], substr: m[3]})
		}
	}
	return wants
}

// TestAnalyzers runs each analyzer over its fixture package and requires an
// exact bidirectional match between planted want comments and emitted
// diagnostics: every want must be found at its file:line with the expected
// message fragment, and no diagnostic may appear without a want.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
		// importPath places the fixture where the analyzer's PathPrefixes
		// (if any) apply.
		importPath string
	}{
		{poolcheckAnalyzer, "poolcheck", "rocksteady/lintfixture/poolcheck"},
		{nopollAnalyzer, "nopoll", "rocksteady/internal/core/nopollfixture"},
		{lockholdAnalyzer, "lockhold", "rocksteady/lintfixture/lockhold"},
		{errdropAnalyzer, "errdrop", "rocksteady/internal/server/errdropfixture"},
		{ctxcheckAnalyzer, "ctxcheck", "rocksteady/lintfixture/ctxcheck"},
		{atomiccheckAnalyzer, "atomiccheck", "rocksteady/lintfixture/atomiccheck"},
		{seqcheckAnalyzer, "seqcheck", "rocksteady/internal/storage/seqcheckfixture"},
		{rcucheckAnalyzer, "rcucheck", "rocksteady/lintfixture/rcucheck"},
		{hotallocAnalyzer, "hotalloc", "rocksteady/lintfixture/hotalloc"},
		// The stale-suppression audit rides along with whichever analyzers a
		// run enables; its fixture is checked with only hotalloc on.
		{hotallocAnalyzer, "unusedignore", "rocksteady/lintfixture/unusedignore"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			pkg, files := loadFixture(t, "testdata/"+tc.fixture, tc.importPath)
			diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{tc.analyzer})
			wants := parseWants(t, files)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", tc.fixture)
			}
			matched := make([]bool, len(diags))
		outer:
			for _, w := range wants {
				for i, d := range diags {
					if matched[i] {
						continue
					}
					if filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line &&
						d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
						matched[i] = true
						continue outer
					}
				}
				t.Errorf("missing diagnostic: %s:%d [%s] containing %q", w.file, w.line, w.analyzer, w.substr)
			}
			for i, d := range diags {
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

// TestAppliesTo pins the hot-path scoping: path-restricted analyzers must
// cover exactly the latency-critical packages.
func TestAppliesTo(t *testing.T) {
	for _, a := range []*Analyzer{nopollAnalyzer, errdropAnalyzer} {
		for _, path := range []string{
			"rocksteady/internal/core",
			"rocksteady/internal/dispatch",
			"rocksteady/internal/transport",
			"rocksteady/internal/server",
		} {
			if !a.AppliesTo(path) {
				t.Errorf("%s should apply to %s", a.Name, path)
			}
		}
		for _, path := range []string{
			"rocksteady/internal/cluster",
			"rocksteady/internal/corelike", // prefix match must be segment-aware
			"rocksteady/cmd/rocksteady-lint",
		} {
			if a.AppliesTo(path) {
				t.Errorf("%s should not apply to %s", a.Name, path)
			}
		}
	}
	for _, path := range []string{
		"rocksteady/internal/storage",
		"rocksteady/internal/storage/seqcheckfixture",
	} {
		if !seqcheckAnalyzer.AppliesTo(path) {
			t.Errorf("seqcheck should apply to %s", path)
		}
	}
	for _, path := range []string{
		"rocksteady/internal/storagelike", // prefix match must be segment-aware
		"rocksteady/internal/server",
	} {
		if seqcheckAnalyzer.AppliesTo(path) {
			t.Errorf("seqcheck should not apply to %s", path)
		}
	}
	for _, a := range []*Analyzer{
		poolcheckAnalyzer, lockholdAnalyzer, ctxcheckAnalyzer,
		atomiccheckAnalyzer, rcucheckAnalyzer, hotallocAnalyzer,
	} {
		if !a.AppliesTo("rocksteady/internal/cluster") {
			t.Errorf("%s should apply module-wide", a.Name)
		}
	}
}

// TestDiagnosticFormat pins the shared file:line:col: [analyzer] message
// output format that editors and CI grep for.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{Analyzer: "poolcheck", Message: "b leaks"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 7
	d.Pos.Column = 3
	if got, want := d.String(), "x.go:7:3: [poolcheck] b leaks"; got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}

// TestCleanTree runs every analyzer over the real module and requires zero
// findings: the tree stays lint-clean, with deliberate exceptions carrying
// lint:ignore annotations.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := fixtureLoader().Load("rocksteady/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(pkgs, allAnalyzers) {
		t.Errorf("finding in tree: %s", d)
	}
}

// TestLoaderHonorsBuildConstraints loads a package with a //go:build
// ignore file that redeclares a name: the file is not part of the build,
// so it must not be part of the package either.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	pkgs, err := fixtureLoader().Load("./testdata/buildignore")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("loaded %d package(s), want 1 with 1 file", len(pkgs))
	}
	if name := filepath.Base(pkgs[0].Fset.File(pkgs[0].Files[0].Pos()).Name()); name != "fixture.go" {
		t.Errorf("loaded %s, want fixture.go", name)
	}
}

// TestLoadErrorExits2 runs the tool on a package go list reports with an
// error (build constraints exclude all its files): the run must fail with
// the tool-error status and name the package, not lint nothing and pass.
func TestLoadErrorExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./testdata/listerror"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	if pkg := "rocksteady/cmd/rocksteady-lint/testdata/listerror"; !strings.Contains(stderr.String(), pkg) {
		t.Errorf("stderr %q does not name %s", stderr.String(), pkg)
	}
}
