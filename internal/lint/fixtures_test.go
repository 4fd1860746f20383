package lint_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"

	"lauberhorn/internal/lint"
)

// The fixture tests pin each analyzer against small intentionally-broken
// packages under testdata/src. Expectations ride on the offending lines
// as `// want "regex"` comments; every diagnostic must match a want on
// its line and every want must be hit, so both false negatives and false
// positives fail the test.

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

type wantKey struct {
	file string
	line int
}

func testFixture(t *testing.T, dir, asPath string) {
	t.Helper()
	fset, pkg, err := lint.LoadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	wants := map[wantKey][]*regexp.Regexp{}
	total := 0
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, m[1], err)
				}
				wants[wantKey{pos.Filename, pos.Line}] = append(wants[wantKey{pos.Filename, pos.Line}], re)
				total++
			}
		}
	}
	diags := lint.RunPackage(fset, pkg, asPath, lint.Suite())
	matched := map[*regexp.Regexp]bool{}
	for _, d := range diags {
		hit := false
		for _, re := range wants[wantKey{d.File, d.Line}] {
			if re.MatchString(d.Message) {
				matched[re] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if len(matched) != total {
		for key, res := range wants {
			for _, re := range res {
				if !matched[re] {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, re)
				}
			}
		}
	}
}

func TestDetMapFixture(t *testing.T) {
	testFixture(t, "detmap", "lauberhorn/internal/experiments")
}

func TestDetSourceFixture(t *testing.T) {
	testFixture(t, "detsource", "lauberhorn/internal/core")
}

func TestGoroutineFixture(t *testing.T) {
	testFixture(t, "goroutine", "lauberhorn/internal/fabric")
}

func TestHotPathFixture(t *testing.T) {
	testFixture(t, "hotpath", "lauberhorn/internal/sim")
}

// TestGoroutineSanctioned is the golden fixture for the sanctioned-package
// list: the same go-statement-and-WaitGroup fixture that fails under
// internal/fabric must be completely silent when analyzed as the Runner's
// package, because it is on the analyzer's explicit allow list — not
// because of any //lhlint:allow annotation in the source.
func TestGoroutineSanctioned(t *testing.T) {
	fset, pkg, err := lint.LoadDir(filepath.Join("testdata", "src", "goroutine"))
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunPackage(fset, pkg, "lauberhorn/internal/experiments", []*lint.Analyzer{lint.Goroutine})
	if len(diags) != 0 {
		t.Errorf("goroutine fired inside the sanctioned Runner package: %v", diags)
	}
}

// TestDetMapScoping double-checks the path scoping: the same map-ranging
// fixture is silent when analyzed under a package outside the
// determinism-critical set.
func TestDetMapScoping(t *testing.T) {
	fset, pkg, err := lint.LoadDir(filepath.Join("testdata", "src", "detmap"))
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunPackage(fset, pkg, "lauberhorn/internal/wire", []*lint.Analyzer{lint.DetMap})
	if len(diags) != 0 {
		t.Fatalf("detmap fired outside its package set: %v", diags)
	}
}

// TestModuleClean is the self-application gate: lhlint over this
// repository must report nothing. It loads and type-checks the whole
// module, so it is skipped in -short runs.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	m, err := lint.LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := lint.Run(m, lint.Suite())
	for _, d := range diags {
		t.Errorf("lhlint finding on clean tree: %s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or annotate them with //lhlint:allow <analyzer> <reason>")
	}
}

func ExampleDiagnostic_String() {
	d := lint.Diagnostic{File: "internal/sim/sim.go", Line: 10, Col: 2,
		Analyzer: "detmap", Message: "range over map[string]int"}
	fmt.Println(d)
	// Output: internal/sim/sim.go:10:2: [detmap] range over map[string]int
}
