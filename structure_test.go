package corun

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"corun/internal/policy"
)

// TestOnePipelineOnePlacer guards structural facts a reviewer would
// otherwise have to re-check by grep. Every scheduling context outside
// tests is built by internal/online's pipeline: one call site each of
// core.NewContext and model.NewPredictor, and none of
// model.NewCachedPredictor, a name kept only for bench/ (its own module,
// whose probe times the stages separately on purpose). core.Oracle is
// the only interface that declares Degradation, so the planner's oracle
// has no mirror to keep in step. And internal/cluster stays the pure
// placement library — it imports nothing else of this module (which has
// no dependencies), so the standard library only.
func TestOnePipelineOnePlacer(t *testing.T) {
	guarded := map[string]map[string]bool{ // import path → constructors
		"corun/internal/core":  {"NewContext": true},
		"corun/internal/model": {"NewPredictor": true, "NewCachedPredictor": true},
	}
	want := map[string]int{"NewContext": 1, "NewPredictor": 1, "NewCachedPredictor": 0}
	sites := map[string][]string{}
	var oracles []string
	eachNonTestFile(t, func(fset *token.FileSet, path, dir string, f *ast.File) {
		local := map[string]string{} // name in this file → guarded import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if dir == "internal/cluster" && strings.HasPrefix(p, "corun/") {
				t.Errorf("%s imports %s; internal/cluster is standard-library only", path, p)
			}
			if _, ok := guarded[p]; ok {
				local[importName(imp)] = p
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							if id.Name == "Degradation" {
								oracles = append(oracles, dir+"."+n.Name.Name)
							}
						}
					}
				}
			case *ast.CallExpr:
				switch fn := n.Fun.(type) {
				case *ast.SelectorExpr:
					if x, ok := fn.X.(*ast.Ident); ok && guarded[local[x.Name]][fn.Sel.Name] {
						sites[fn.Sel.Name] = append(sites[fn.Sel.Name], fset.Position(n.Pos()).String())
					}
				case *ast.Ident: // unqualified, inside the defining package
					if guarded["corun/"+dir][fn.Name] {
						sites[fn.Name] = append(sites[fn.Name], fset.Position(n.Pos()).String())
					}
				}
			}
			return true
		})
	})
	for ctor, n := range want {
		got := sites[ctor]
		if len(got) != n || (n > 0 && !strings.HasPrefix(got[0], "internal/online/")) {
			t.Errorf("%s is called at %v; want %d non-test call sites, in internal/online", ctor, got, n)
		}
	}
	if want := []string{"internal/core.Oracle"}; !slices.Equal(oracles, want) {
		t.Errorf("interfaces declaring Degradation: %q, want only %q", oracles, want)
	}
}

// eachNonTestFile parses every non-test Go file of this module (bench/
// is a module of its own) and hands it to visit with its slash-
// separated directory.
func eachNonTestFile(t *testing.T, visit func(fset *token.FileSet, path, dir string, f *ast.File)) {
	t.Helper()
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
		visit(fset, filepath.ToSlash(path), filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// importName is the name an import is referred to by in its file.
func importName(imp *ast.ImportSpec) string {
	if imp.Name != nil {
		return imp.Name.Name
	}
	p, _ := strconv.Unquote(imp.Path.Value)
	return p[strings.LastIndex(p, "/")+1:]
}

// TestAPolicyIsARow guards the policy table's monopoly on knowing what
// a policy is. Outside internal/policy (and tests, and bench/): no
// ==, != or case compares against a string literal that spells a
// policy name or alias; the dispatcher baselines' executors
// (core.ExecuteRandom, core.ExecuteDefault) are called by the table's
// rows alone; and the evaluation harness runs its arms by name — only
// ablation.go, whose knobs are not policies, calls the HCS steps
// directly.
func TestAPolicyIsARow(t *testing.T) {
	spelling := map[string]bool{}
	for _, info := range policy.List() {
		spelling[info.Name] = true
		for _, a := range info.Aliases {
			spelling[a] = true
		}
	}
	names := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		v, err := strconv.Unquote(lit.Value)
		return err == nil && spelling[strings.ToLower(strings.TrimSpace(v))]
	}
	executors := map[string]bool{"ExecuteRandom": true, "ExecuteDefault": true}
	hcsSteps := map[string]bool{"HCS": true, "Refine": true, "HCSPlus": true}

	eachNonTestFile(t, func(fset *token.FileSet, path, dir string, f *ast.File) {
		if dir == "internal/policy" {
			return
		}
		coreName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"corun/internal/core"` {
				coreName = importName(imp)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (names(n.X) || names(n.Y)) {
					t.Errorf("%s compares against a policy name", fset.Position(n.Pos()))
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if names(e) {
						t.Errorf("%s switches on a policy name", fset.Position(e.Pos()))
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && coreName != "" && x.Name == coreName && executors[sel.Sel.Name] {
					t.Errorf("%s calls core.%s; baselines run through policy.Run", fset.Position(n.Pos()), sel.Sel.Name)
				}
				if dir == "internal/exp" && path != "internal/exp/ablation.go" && hcsSteps[sel.Sel.Name] {
					t.Errorf("%s calls %s directly; experiments run arms by policy name (Suite.run)", fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestOneJobRecord keeps the daemon's job declared once: the record the
// journal writes is the job the table publishes and the HTTP encoder
// serves, so a second struct with a field tagged json:"arrived_sim_s…"
// would be a second copy of the job to keep in step field by field.
// Tests are exempt (the HTTP encoder's fuzz oracle spells its schema
// as a struct), and so is bench/.
func TestOneJobRecord(t *testing.T) {
	var decls []string
	eachNonTestFile(t, func(fset *token.FileSet, path, dir string, f *ast.File) {
		named := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					named[st] = dir + "." + n.Name.Name
				}
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					if fl.Tag == nil {
						continue
					}
					tag, _ := strconv.Unquote(fl.Tag.Value)
					if strings.HasPrefix(reflect.StructTag(tag).Get("json"), "arrived_sim_s") {
						name := named[n]
						if name == "" {
							name = "a struct at " + fset.Position(n.Pos()).String()
						}
						decls = append(decls, name)
					}
				}
			}
			return true
		})
	})
	if want := []string{"internal/journal.JobRecord"}; !slices.Equal(decls, want) {
		t.Errorf("job records declared by %q, want only %q", decls, want)
	}
}

// TestEveryKnobIsListed makes a new setting a visible edit: corund's
// flags and the fields of the four configuration structs that reach
// the daemon are pinned to the lists below, and README.md documents
// every listed flag and none of the ones turned into constants (bench/
// is exempt: it only passes flags). A setting earns a place here when a
// second non-test caller needs another value, when it is a deployment
// setting, or when a test can reach what it guards no other way
// (ROADMAP.md item 8(f) lists each kept one with its reason).
func TestEveryKnobIsListed(t *testing.T) {
	flags := []string{
		"addr", "cap", "cap-pp0", "cap-pp1", "tmax", "node-id",
		"coordinator", "nodes", "fleet-cap", "balancer", "health-interval",
		"rebalance-interval", "policy", "machine", "max-queue", "tenant-queue",
		"tenant-weights", "max-batch", "epoch-gap", "char", "save-char", "seed",
		"data-dir", "fsync", "request-timeout", "fault-spec",
	}
	removed := []string{"journal-retries", "retry-base", "retry-max", "breaker-threshold", "breaker-cooldown", "node-floor"}
	fields := map[string][]string{
		"internal/server.Config": {"Machine", "NodeID", "Char", "Cap", "Domains", "Policy", "Seed",
			"MaxQueue", "TenantQueue", "TenantWeights", "MaxBatch", "EpochGap", "DataDir", "Fsync",
			"Faults", "RequestTimeout"},
		"internal/fleet.Config": {"Nodes", "BudgetW", "Balancer", "Machine", "HealthInterval",
			"RebalanceInterval", "RequestTimeout", "Client"},
		"internal/journal.Options": {"Dir", "Fsync", "SnapshotBytes", "Observer", "Faults"},
		"internal/sim.Options": {"Cfg", "Mem", "PowerCap", "HardCap", "DomainCaps", "CPUSlots",
			"InitCPUFreq", "InitGPUFreq", "Governor", "StopInstance", "MaxTime"},
	}

	var gotFlags []string
	gotFields := map[string][]string{}
	eachNonTestFile(t, func(fset *token.FileSet, path, dir string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || dir != "cmd/corund" || len(n.Args) == 0 {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
					return true
				}
				if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					gotFlags = append(gotFlags, name)
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				key := dir + "." + n.Name.Name
				if _, listed := fields[key]; !ok || !listed {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						gotFields[key] = append(gotFields[key], id.Name)
					}
				}
			}
			return true
		})
	})
	if !slices.Equal(gotFlags, flags) {
		t.Errorf("corund flags are %q, the list says %q", gotFlags, flags)
	}
	for key, want := range fields {
		if got := gotFields[key]; !slices.Equal(got, want) {
			t.Errorf("%s fields are %q, the list says %q", key, got, want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	mentioned := func(name string) bool {
		re := regexp.MustCompile(`(^|[^A-Za-z0-9-])-` + regexp.QuoteMeta(name) + `($|[^A-Za-z0-9-])`)
		return re.Match(readme)
	}
	for _, name := range flags {
		if !mentioned(name) {
			t.Errorf("README.md never mentions -%s", name)
		}
	}
	for _, name := range removed {
		if mentioned(name) {
			t.Errorf("README.md still mentions -%s, which is a constant now", name)
		}
	}
}
