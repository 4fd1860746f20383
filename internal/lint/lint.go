// Package lint implements lhlint, the repository's determinism and
// hot-path static-analysis suite. The paper (§6) argues that Lauberhorn's
// concurrent NIC/kernel/cache-line interaction is amenable to mechanical
// checking; internal/check reproduces that at the protocol level, and
// this package extends the same discipline to the Go source itself: the
// invariants every PR re-pins by hand — byte-identical serial/parallel
// output and allocation-free hot paths — become compiler-enforced law.
//
// The suite (see Suite) checks:
//
//   - detmap: no map iteration in packages whose output, event order, or
//     hashed state must be deterministic.
//   - detsource: no wall-clock time, global math/rand, or environment
//     reads in model/experiment code; simulated time comes from sim.Time
//     and randomness from per-universe RNG streams.
//   - goroutine: no go statements or sync primitives outside the
//     experiment Runner and cmd/ — one universe is one single-threaded
//     simulator.
//   - hotpath: functions annotated //lhlint:hotpath must not contain
//     constructs that allocate or box (capturing closures, interface
//     conversions, unbounded appends in loops, string concatenation,
//     map allocation).
//   - registry: every registered experiment has an EXPERIMENTS.md row
//     naming a pinning test that exists.
//   - docs: backticked repository paths in the top-level documents
//     resolve to files that exist.
//
// Annotation grammar (line comments, column-insensitive):
//
//	//lhlint:hotpath
//	    marks the following function as a hot path (on its doc comment).
//	//lhlint:allow <analyzer> <reason>
//	    suppresses that analyzer's diagnostics on the same line or the
//	    line below. The reason is mandatory: a bare allow is itself a
//	    diagnostic, so every suppression documents why it is sound.
//
// Determinism invariants: diagnostics are sorted by (file, line, column,
// analyzer, message) and carry root-relative paths, so lhlint's own
// output is byte-identical across runs and machines.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned root-relative.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the canonical file:line:col: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check. Per-package analyzers set Run; module-wide
// analyzers (registry, docs) set RunModule instead.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters the packages Run sees; nil means every package.
	Applies func(pkgPath string) bool
	// Run inspects one type-checked package.
	Run func(p *Pass)
	// RunModule inspects the module as a whole.
	RunModule func(m *Module, report func(Diagnostic))
}

// Suite returns the full analyzer suite in presentation order.
func Suite() []*Analyzer {
	return []*Analyzer{DetMap, DetSource, Goroutine, HotPath, Registry, Docs}
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's effective import path. Fixture tests override
	// it to exercise path-scoped analyzers.
	Path     string
	Pkg      *Package
	analyzer *Analyzer
	out      *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //lhlint: comment.
type directive struct {
	file     string
	line     int
	col      int
	verb     string // "allow" or "hotpath"
	analyzer string // allow only
	reason   string // allow only
}

// parseDirectives extracts every //lhlint: directive from a file.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, group := range f.Comments {
		for _, c := range group.List {
			text, ok := strings.CutPrefix(c.Text, "//lhlint:")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			d := directive{file: pos.Filename, line: pos.Line, col: pos.Column}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				d.verb = ""
			} else {
				d.verb = fields[0]
			}
			if d.verb == "allow" && len(fields) >= 2 {
				d.analyzer = fields[1]
				d.reason = strings.TrimSpace(strings.Join(fields[2:], " "))
			}
			out = append(out, d)
		}
	}
	return out
}

// Run executes the given analyzers over every package of the module and
// returns the surviving diagnostics, deterministically sorted. Allow
// directives with a reason suppress matching diagnostics on their own
// line or the line directly below; malformed directives are reported by
// the synthetic "directive" analyzer and suppress nothing.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var dirs []directive
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			dirs = append(dirs, parseDirectives(m.Fset, f)...)
		}
		if pkg.Types == nil {
			continue
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.Applies != nil && !a.Applies(pkg.ImportPath) {
				continue
			}
			pass := &Pass{Fset: m.Fset, Path: pkg.ImportPath, Pkg: pkg, analyzer: a, out: &diags}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(m, func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			})
		}
	}
	diags = append(diags, checkDirectives(dirs, analyzers)...)
	return finish(diags, dirs)
}

// RunPackage executes per-package analyzers over one already-built
// package under an effective import path; the fixture tests use it.
func RunPackage(fset *token.FileSet, pkg *Package, asPath string, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var dirs []directive
	for _, f := range pkg.Files {
		dirs = append(dirs, parseDirectives(fset, f)...)
	}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		if a.Applies != nil && !a.Applies(asPath) {
			continue
		}
		pass := &Pass{Fset: fset, Path: asPath, Pkg: pkg, analyzer: a, out: &diags}
		a.Run(pass)
	}
	diags = append(diags, checkDirectives(dirs, analyzers)...)
	return finish(diags, dirs)
}

// checkDirectives validates //lhlint: comments themselves: unknown verbs,
// unknown analyzer names, and bare suppressions without a reason.
func checkDirectives(dirs []directive, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	report := func(d directive, msg string) {
		out = append(out, Diagnostic{File: d.file, Line: d.line, Col: d.col,
			Analyzer: "directive", Message: msg})
	}
	for _, d := range dirs {
		switch d.verb {
		case "hotpath":
			// Validated by the hotpath analyzer's annotation scan.
		case "allow":
			if d.analyzer == "" {
				report(d, "//lhlint:allow needs an analyzer name and a reason")
			} else if !known[d.analyzer] {
				report(d, fmt.Sprintf("//lhlint:allow names unknown analyzer %q", d.analyzer))
			} else if d.reason == "" {
				report(d, fmt.Sprintf("//lhlint:allow %s needs a reason: bare suppressions are forbidden", d.analyzer))
			}
		default:
			report(d, fmt.Sprintf("unknown directive //lhlint:%s", d.verb))
		}
	}
	return out
}

// finish applies allow suppression and sorts the surviving diagnostics.
func finish(diags []Diagnostic, dirs []directive) []Diagnostic {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	allowed := map[key]bool{}
	for _, d := range dirs {
		if d.verb == "allow" && d.analyzer != "" && d.reason != "" {
			// The directive covers its own line (trailing comment) and the
			// line below (comment above the offending statement).
			allowed[key{d.file, d.line, d.analyzer}] = true
			allowed[key{d.file, d.line + 1, d.analyzer}] = true
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "directive" && allowed[key{d.File, d.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}
