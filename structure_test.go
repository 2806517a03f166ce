package corun

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnePipelineOnePlacer guards two structural facts a reviewer
// would otherwise have to re-check by grep: every scheduling context
// outside tests is built by internal/online's pipeline (one call site
// each of core.NewContext and model.NewCachedPredictor; bench/ is its
// own module, and its probe times the stages separately on purpose),
// and internal/cluster stays the pure placement library — it imports
// nothing else of this module (which has no dependencies), so the
// standard library only.
func TestOnePipelineOnePlacer(t *testing.T) {
	guarded := map[string]string{ // import path → constructor
		"corun/internal/core":  "NewContext",
		"corun/internal/model": "NewCachedPredictor",
	}
	sites := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		local := map[string]string{} // name in this file → guarded import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if dir == "internal/cluster" && strings.HasPrefix(p, "corun/") {
				t.Errorf("%s imports %s; internal/cluster is standard-library only", path, p)
			}
			if _, ok := guarded[p]; ok {
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = p
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				if x, ok := fn.X.(*ast.Ident); ok && guarded[local[x.Name]] == fn.Sel.Name {
					sites[fn.Sel.Name] = append(sites[fn.Sel.Name], fset.Position(call.Pos()).String())
				}
			case *ast.Ident: // unqualified, inside the defining package
				if guarded["corun/"+dir] == fn.Name {
					sites[fn.Name] = append(sites[fn.Name], fset.Position(call.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ctor := range guarded {
		if got := sites[ctor]; len(got) != 1 || !strings.HasPrefix(got[0], "internal/online/") {
			t.Errorf("%s is called at %v; want exactly one non-test call site, in internal/online", ctor, got)
		}
	}
}
