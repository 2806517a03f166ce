package corun

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
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

// TestNoSingleCallerPackage keeps the package graph one package per
// concept: every directory under internal/ is imported by non-test files
// in at least two other directories of this module (bench/ does not
// count). A package with one caller is a part of that caller and lives
// beside it. The exceptions are roots of their own: internal/exp is the
// evaluation harness cmd/experiments runs, and internal/fleet is the
// coordinator corund's -coordinator mode serves.
func TestNoSingleCallerPackage(t *testing.T) {
	roots := map[string]bool{"internal/exp": true, "internal/fleet": true}
	importers := map[string]map[string]bool{} // package dir → importing dirs
	eachNonTestFile(t, func(fset *token.FileSet, path, dir string, f *ast.File) {
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			pkg, ok := strings.CutPrefix(p, "corun/")
			if !ok || pkg == dir {
				continue
			}
			if importers[pkg] == nil {
				importers[pkg] = map[string]bool{}
			}
			importers[pkg][dir] = true
		}
	})
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		pkg := "internal/" + e.Name()
		if !e.IsDir() || roots[pkg] {
			continue
		}
		if len(importers[pkg]) < 2 {
			var from []string
			for dir := range importers[pkg] {
				from = append(from, dir)
			}
			slices.Sort(from)
			t.Errorf("%s is imported only from %q; fold it into its caller", pkg, from)
		}
	}
}

// TestFailpointsStayInTheDaemon keeps fault injection a property of the
// daemon, not of the libraries it calls: among non-test files only
// internal/server, internal/journal (the daemon's journal, whose
// registry the server hands it) and cmd/corund (which arms one from
// -fault-spec) import internal/fault. The planner, the simulator and
// every other front end run with no failpoint on their path.
func TestFailpointsStayInTheDaemon(t *testing.T) {
	allowed := map[string]bool{"internal/server": true, "internal/journal": true, "cmd/corund": true}
	eachNonTestFile(t, func(fset *token.FileSet, path, dir string, f *ast.File) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "corun/internal/fault" && !allowed[dir] {
				t.Errorf("%s imports %s; only the daemon (internal/server, internal/journal, cmd/corund) may", path, p)
			}
		}
	})
}

// TestHeatsinkStaysInSim keeps the heatsink's state and rules in one
// home: among non-test files only internal/apu (the thermal model) and
// internal/sim (sim.Machine, which carries the heatsink from run to run)
// call a method named Cold, Step, Relax or Decay. A layer above reads a
// machine's heat and restores it; it never builds or steps one.
func TestHeatsinkStaysInSim(t *testing.T) {
	allowed := map[string]bool{"internal/apu": true, "internal/sim": true}
	thermal := map[string]bool{"Cold": true, "Step": true, "Relax": true, "Decay": true}
	eachNonTestFile(t, func(fset *token.FileSet, path, dir string, f *ast.File) {
		if allowed[dir] {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && thermal[sel.Sel.Name] {
					t.Errorf("%s calls %s; only internal/apu and internal/sim may", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	})
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
// flags, the fields of the four configuration structs that reach the
// daemon, the fields of the six option structs of the planner, the
// governor and the generator, the two planes of the cap under the
// package cap and the fields of the machine description (the facade's
// Machine) are pinned to the lists below, and README.md documents
// every listed flag and none of the ones turned into constants (bench/
// is exempt: it only passes flags). A setting earns a place here when a second non-test caller
// needs another value, when it is a deployment setting, or when a test
// can reach what it guards no other way (ROADMAP.md item 8(f) lists
// each kept daemon one with its reason, DESIGN.md §2d each kept library
// one).
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
			"RebalanceInterval", "RequestTimeout"},
		"internal/journal.Options": {"Dir", "Fsync", "SnapshotBytes", "Observer", "Faults"},
		"internal/sim.Options": {"Cfg", "Mem", "PowerCap", "HardCap", "DomainCaps", "CPUSlots",
			"InitCPUFreq", "InitGPUFreq", "Governor", "StopInstance", "MaxTime"},
		"internal/core.HCSOptions":     {"DisablePartition", "DisablePreference"},
		"internal/core.RefineOptions":  {"Seed", "SkipAdjacent", "SkipRandomInQueue", "SkipCross"},
		"internal/core.GeneticOptions": {"Seed", "SeedSchedule"},
		"internal/workload.GenOptions": {"N", "Seed"},
		"internal/sim.BiasedGovernor":  {"Cap", "Domains", "Bias"},
		"internal/apu.DomainCaps":      {"PP0", "PP1"},
		"internal/apu.Config": {"CPUFreqs", "GPUFreqs", "IdlePower", "CPUPowerCoeff", "CPUPowerExp",
			"GPUPowerCoeff", "GPUPowerExp", "StallPowerFloor", "HostPowerFrac", "TDP", "Thermal", "powMemo"},
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

// TestNoTwinFunctions finds code written twice. Two non-test functions
// are twins when their bodies print identically once each method's
// receiver is renamed to one placeholder; only bodies that print to
// five or more lines, braces included, count. A twin is one function
// (or one embedded type) away from being a single definition.
func TestNoTwinFunctions(t *testing.T) {
	const minLines = 5
	bodies := map[string][]string{} // printed body → functions
	eachNonTestFile(t, func(fset *token.FileSet, path, dir string, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Recv != nil && len(fn.Recv.List[0].Names) > 0 {
				recv := fn.Recv.List[0].Names[0].Obj
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Obj != nil && id.Obj == recv {
						id.Name = "recv"
					}
					return true
				})
			}
			var buf strings.Builder
			if err := printer.Fprint(&buf, fset, fn.Body); err != nil {
				t.Fatal(err)
			}
			if body := buf.String(); strings.Count(body, "\n")+1 >= minLines {
				at := fmt.Sprintf("%s:%d %s", path, fset.Position(fn.Pos()).Line, fn.Name.Name)
				bodies[body] = append(bodies[body], at)
			}
		}
	})
	var twins []string
	for _, at := range bodies {
		if len(at) > 1 {
			twins = append(twins, strings.Join(at, ", "))
		}
	}
	slices.Sort(twins)
	for _, group := range twins {
		t.Errorf("one body, written %d times: %s", strings.Count(group, ",")+1, group)
	}
}
