package smoothscan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// estimateCalls are the optimizer entry points a plan decision is taken
// from: the access-path pick, the cardinality and selectivity estimates
// and the fallback statistics.
var estimateCalls = []string{"ChooseAccessPath", "EstimateCard", "EstimateSelectivity", "DefaultStats"}

// TestBindPhaseIsTheOneOwner parses every non-test Go file of the root
// package and fails on a call of an estimateCalls function or method:
// every decision taken from an estimate — driving index, PathAuto,
// merge vs hash, build side, broadcast side, parallelism — is made in
// internal/optimizer's bind phase, which the facade calls through Bind
// (and Analyze through CollectStats).
func TestBindPhaseIsTheOneOwner(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(estimateCalls, sel.Sel.Name) {
				t.Errorf("%s: %s outside internal/optimizer; decide it in the bind phase (optimizer.Bind)", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if files == 0 {
		t.Fatal("no Go files parsed")
	}
}
