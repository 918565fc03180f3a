package plan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// scanConstructors are the operator constructors only Build may call,
// by the import path of the package that defines them.
var scanConstructors = map[string][]string{
	"smoothscan/internal/core":   {"NewSmoothScan"},
	"smoothscan/internal/access": {"NewFullScan", "NewFullScanRange", "NewIndexScan", "NewSortScan", "NewSwitchScan"},
}

// TestBuildIsTheOnlyScanConstructor parses every non-test Go file of
// the module and fails on any reference to a scan operator constructor
// outside this package and the two that define them: every scan the
// engine, the TPC-H queries and the experiment harness run is a
// ScanSpec built here. Nested modules (bench/) are not part of the
// module and are skipped.
func TestBuildIsTheOnlyScanConstructor(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	allowed := []string{"internal/plan", "internal/access", "internal/core"}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || slices.Contains(allowed, rel) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, ref := range constructorRefs(f) {
			t.Errorf("%s: %s outside internal/plan; describe the scan as a plan.ScanSpec and call plan.Build", fset.Position(ref.Pos()), ref.Sel.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files parsed")
	}
}

// constructorRefs returns f's qualified references to scanConstructors.
func constructorRefs(f *ast.File) []*ast.SelectorExpr {
	local := map[string][]string{} // import name in f -> constructors
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		names, ok := scanConstructors[path]
		if !ok {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = names
	}
	var refs []*ast.SelectorExpr
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && slices.Contains(local[x.Name], sel.Sel.Name) {
			refs = append(refs, sel)
		}
		return true
	})
	return refs
}
