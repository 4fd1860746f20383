package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// goroutineSanctioned lists the packages allowed to start goroutines and
// touch sync primitives. Model code is single-threaded by contract —
// distinct Sim instances on distinct goroutines share nothing — so
// concurrency is confined to an explicit sanctioned set rather than
// waived per-site with //lhlint:allow: a new concurrent package is a
// design decision and must be added here, in review, not annotated away
// at the call site.
//
//   - internal/experiments: the Runner fans experiment processes out
//     across worker goroutines; each owns a whole universe.
var goroutineSanctioned = map[string]bool{
	"lauberhorn/internal/experiments": true,
}

// Goroutine confines concurrency to the sanctioned packages above plus
// the command-line harnesses. go statements and sync primitives anywhere
// else in internal/ are rejected outright.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "forbids go statements and sync primitives outside sanctioned packages and cmd/",
	Applies: func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, "lauberhorn/internal/") &&
			!goroutineSanctioned[pkgPath]
	},
	Run: runGoroutine,
}

func runGoroutine(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(),
					"go statement outside sanctioned packages and cmd/: model code is single-threaded by contract")
			case *ast.Ident:
				obj := p.Pkg.Info.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				pkgPath := obj.Pkg().Path()
				if pkgPath != "sync" && pkgPath != "sync/atomic" {
					return true
				}
				// Skip method references (mu.Lock and friends): the mutex is
				// already flagged once where its type is named.
				if fn, ok := obj.(*types.Func); ok {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
						return true
					}
				}
				p.Reportf(n.Pos(),
					"%s.%s outside sanctioned packages and cmd/: concurrency is confined to the experiment Runner",
					pkgPath, obj.Name())
			}
			return true
		})
	}
}
