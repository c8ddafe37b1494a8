package modissense_test

// The module's static contracts, checked over one type-checked load of
// every non-test package under the module root, the repository benchmark's
// nested module included. Three rules read that load:
//
//   - the doc rule: every exported top-level identifier of internal/... and
//     client carries a doc comment (a group comment, a spec doc or a
//     trailing line comment documents a const or var);
//   - the caller rule: every exported function, method, type, const and var
//     of an internal package has a use outside _test.go files, unless the
//     allowlist below names it with the reason it is kept. Uses inside the
//     identifier's own declaration, and a type's uses inside its own
//     methods, do not count. A method that implements a method of any
//     interface the program can see (its own packages' and every
//     standard-library package they import) counts as used, and a use of an
//     instantiated generic counts for its origin;
//   - the label rule: every value handed to obs.L or written into an
//     obs.Label literal is a compile-time constant, the static half of the
//     bounded-cardinality contract (the registry's per-family series cap is
//     the dynamic half). internal/obs itself is exempt: its exposition
//     writer builds the reserved "le" bucket label from float bounds.
//
// _test.go files are outside all three: a test is not a production caller,
// test helpers are documented where it helps, not by mandate, and a test
// may synthesize labels to provoke the runtime cap. The route table's
// agreement with API.md is checked beside the router, in internal/core.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestStaticContracts loads the module once and holds it to the doc, caller
// and label rules.
func TestStaticContracts(t *testing.T) {
	l := loadModule(t, ".")
	t.Run("docs", func(t *testing.T) {
		vs, audited := checkDocs(l)
		failOn(t, vs, "%d exported identifiers documented", audited)
	})
	t.Run("callers", func(t *testing.T) {
		rep := checkUnused(l, allowlist)
		failOn(t, rep.violations, "%d exported identifiers in internal packages with a production caller, %d allowlisted",
			rep.audited-rep.allowed, rep.allowed)
	})
	t.Run("labels", func(t *testing.T) {
		vs, sites := checkLabels(l)
		failOn(t, vs, "%d label construction sites audited", sites)
	})
}

// TestDocRuleFixture runs the doc rule over a module whose client package
// leaves an exported function, type, const and method undocumented, and
// documents the rest each way the rule accepts.
func TestDocRuleFixture(t *testing.T) {
	vs, audited := checkDocs(loadModule(t, filepath.Join("testdata", "mod")))
	want := []string{
		"exported function Bare has no doc comment",
		"exported type Plain has no doc comment",
		"exported const Limit has no doc comment",
		"exported method Method has no doc comment",
	}
	if got := messages(vs); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
	// client: Bare, Plain, Limit, Documented, A, B, Tail, Plain.Method;
	// lib: Unused, TestOnly, Shape, Square, Square.Area, NewSquare, Max, Box,
	// Box.Get, Seam; obs: Label, L.
	if audited != 20 {
		t.Errorf("audited %d, want 20", audited)
	}
}

// TestCheckUnusedFixture runs the unused-identifier check over a module
// holding one case of each kind: a caller-less function and one called only
// from a _test.go file are flagged, an interface implementation reached only
// through the interface, a generic function called through instantiations
// and a generic type's method called on an instantiation are not, an allowlisted name is not, and an allowlist
// entry naming nothing or naming an identifier with a production caller is.
func TestCheckUnusedFixture(t *testing.T) {
	rep := checkUnused(loadModule(t, filepath.Join("testdata", "mod")), map[string]string{
		"lib.Seam":      "test seam",
		"lib.NewSquare": "kept after main started calling it",
		"lib.Gone":      "deleted long ago",
	})
	got := messages(rep.violations)
	sort.Strings(got)
	want := []string{
		"allowlist entry lib.Gone names no exported identifier of an internal package",
		"allowlisted function lib.NewSquare has a production caller; drop its allowlist entry",
		"exported function lib.TestOnly has no caller outside tests",
		"exported function lib.Unused has no caller outside tests",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
	// Unused, TestOnly, Shape, Shape.Area, Square, Square.Area, NewSquare,
	// Max, Box, Box.Get, Seam, obs.Label, obs.L; Seam is the one allowlisted.
	if rep.audited != 13 || rep.allowed != 1 {
		t.Errorf("audited %d, allowed %d; want 13 and 1", rep.audited, rep.allowed)
	}
}

// TestLabelRuleFixture runs the label rule over a module whose label sites
// pass a variable, a local that shadows a const's name, a variable through
// a renamed import and a variable in an elided obs.Label literal, all
// flagged, beside a constant concatenation and a constant literal that
// pass and a variable inside the obs package, which is exempt.
func TestLabelRuleFixture(t *testing.T) {
	vs, sites := checkLabels(loadModule(t, filepath.Join("testdata", "mod")))
	want := []string{
		"obs.L argument route is not a compile-time constant",
		"obs.L argument status is not a compile-time constant",
		"obs.Label field route is not a compile-time constant",
		"obs.L argument v is not a compile-time constant",
	}
	if got := messages(vs); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
	if sites != 6 {
		t.Errorf("%d label sites, want 6", sites)
	}
}

type violation struct {
	pos token.Position
	msg string
}

func messages(vs []violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.msg)
	}
	return out
}

// failOn reports each violation as an error, or logs the counts of a clean
// pass.
func failOn(t *testing.T, vs []violation, ok string, args ...any) {
	t.Helper()
	for _, v := range vs {
		if v.pos.IsValid() {
			t.Errorf("%s: %s", v.pos, v.msg)
		} else {
			t.Error(v.msg)
		}
	}
	if len(vs) == 0 {
		t.Logf(ok, args...)
	}
}

// loadModule type-checks every non-test package under root, a module root.
func loadModule(t *testing.T, root string) *loader {
	t.Helper()
	l, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.paths() {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// checkDocs applies lintFile to the loaded files of the root module's
// internal packages and its client package.
func checkDocs(l *loader) ([]violation, int) {
	var violations []violation
	audited := 0
	for _, p := range l.paths() {
		if !strings.HasPrefix(p, l.rootMod+"/internal/") && p != l.rootMod+"/client" {
			continue
		}
		for _, f := range l.pkgs[p].files {
			v, n := lintFile(l.fset, f)
			violations = append(violations, v...)
			audited += n
		}
	}
	return violations, audited
}

// lintFile audits one file's top-level declarations.
func lintFile(fset *token.FileSet, f *ast.File) ([]violation, int) {
	var violations []violation
	audited := 0
	report := func(pos token.Pos, kind, name string) {
		violations = append(violations, violation{
			pos: fset.Position(pos),
			msg: fmt.Sprintf("exported %s %s has no doc comment", kind, name),
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			// Methods count when the receiver's base type is exported too;
			// an exported method on an unexported type is unreachable API.
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue
			}
			audited++
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Name.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					audited++
					if d.Doc == nil && ts.Doc == nil {
						report(ts.Name.Pos(), "type", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				kind := "const"
				if d.Tok == token.VAR {
					kind = "var"
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, id := range vs.Names {
						if !id.IsExported() {
							continue
						}
						audited++
						// A group comment, a spec doc, or a trailing line
						// comment all document the name.
						if d.Doc == nil && vs.Doc == nil && vs.Comment == nil {
							report(id.Pos(), kind, id.Name)
						}
					}
				}
			}
		}
	}
	return violations, audited
}

// exportedReceiver reports whether the method receiver's base type name is
// exported.
func exportedReceiver(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// checkLabels reports every argument of a call to the root module's obs.L
// and every element of an obs.Label literal that is not a compile-time
// constant, outside internal/obs, and counts the label construction sites.
func checkLabels(l *loader) ([]violation, int) {
	obsPath := l.rootMod + "/internal/obs"
	isObs := func(obj types.Object, name string) bool {
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == obsPath && obj.Name() == name
	}
	var violations []violation
	sites := 0
	check := func(what string, e ast.Expr) {
		if l.info.Types[e].Value == nil {
			violations = append(violations, violation{
				pos: l.fset.Position(e.Pos()),
				msg: fmt.Sprintf("%s %s is not a compile-time constant", what, types.ExprString(e)),
			})
		}
	}
	for _, p := range l.paths() {
		if p == obsPath {
			continue
		}
		for _, f := range l.pkgs[p].files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					fun := ast.Unparen(n.Fun)
					if sel, ok := fun.(*ast.SelectorExpr); ok {
						fun = sel.Sel
					}
					if id, ok := fun.(*ast.Ident); ok && isObs(l.info.Uses[id], "L") {
						sites++
						for _, arg := range n.Args {
							check("obs.L argument", arg)
						}
					}
				case *ast.CompositeLit:
					if named, ok := l.info.Types[n].Type.(*types.Named); ok && isObs(named.Obj(), "Label") {
						sites++
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								elt = kv.Value
							}
							check("obs.Label field", elt)
						}
					}
				}
				return true
			})
		}
	}
	return violations, sites
}

// allowlist names the exported identifiers that are kept without a
// production caller, each with its caller class. An entry that names
// nothing, or whose identifier has gained a production caller, fails the
// check.
var allowlist = map[string]string{
	// Test seams used by tests in another package.
	"faultinject.New":                  "test seam: builds the injectors of the bench, core, kvstore, query and repos fault tests",
	"faultinject.ParseSchedule":        "test seam: the fault-schedule DSL of the bench, query and repos tests (TestScenarioReadFaults -faults)",
	"kvstore.Table.SetFaultInjector":   "test seam: arms op=put / op=ship faults in the bench, core, query and repos tests",
	"kvstore.Table.PutFenced":          "test seam: TestScenarioPrimaryKill's zombie primary writes at its stale epoch",
	"kvstore.Table.NodeHealth":         "test seam: the bench, core and query failover tests read the detector's ladder",
	"kvstore.Table.WaitFailover":       "test seam: the bench and core failover tests wait out an asynchronous promotion",
	"kvstore.Table.CatchUpReplication": "test seam: the bench and query replica tests start from converged replicas",
	"kvstore.Table.SplitRegion":        "test seam: kvstore's split-vs-scan, split-vs-replication and split-then-replay tests; the one entry to the region split DESIGN §5 describes",
	"kvstore.Region.PrimaryNode":       "test seam: the bench, core and query failover tests locate a region's primary",
	"kvstore.Region.Epoch":             "test seam: TestScenarioPrimaryKill checks the epoch a promotion bumps",
	"kvstore.Store.MultiScanCtx":       "test seam: the kvstore, repos and query scan tests read one store over a []ScanRange; it is MultiScanSource over ScanRanges",
	"exec.RetryBudget.Attempts":        "test seam: TestScenarioOverload bounds retries + hedges by the credited attempts",
	"query.Engine.RetryBudget":         "test seam: TestScenarioOverload reads the engine's budget",
	"query.Engine.SetFaultInjector":    "test seam: arms read faults in the bench and core scenario tests",
	"matview.HotInView.Floor":          "test seam: the core and query trending tests check the coverage floor a clamp reports",
	"matview.ResultCache.Len":          "test seam: the query result-cache tests check what was memoized",
	"workload.GenGPSDay":               "test seam: the core and client GPS and blog tests and the facade's blog example synthesize a day of fixes",
	"workload.GenGathering":            "test seam: the core and client event-detection tests and the facade's example plant a crowd",
	// The operator hatch OPERATIONS.md §11 documents.
	"kvstore.Table.FailoverNode": "operator hatch: forced promotion, OPERATIONS.md §11",
	"kvstore.Table.RejoinNode":   "operator hatch: re-entering a repaired node as a replica, OPERATIONS.md §11",
	// The reference oracle's engine.
	"mapreduce.Job.RunOnCluster": "oracle engine: TestUpdateHotInMatchesMRJob runs the MapReduce HotIn job on it",
	"mapreduce.SplitRecords":     "oracle engine: TestUpdateHotInMatchesMRJob splits the job's input with it",
}

// unusedReport is what checkUnused found.
type unusedReport struct {
	violations []violation
	audited    int // exported identifiers of internal packages
	allowed    int // of those, kept by an allowlist entry
}

// checkUnused reports the exported identifiers of the loaded root
// module's internal packages that nothing outside a _test.go file uses,
// plus every stale entry of allow.
func checkUnused(l *loader, allow map[string]string) unusedReport {
	targets := l.targets()
	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		t, ok := targets[obj]
		if ok && !t.owns(id.Pos()) {
			used[obj] = true
		}
	}
	ifaces := l.interfaces()

	var rep unusedReport
	seen := map[string]bool{}
	for obj, t := range targets {
		rep.audited++
		live := used[obj] || implementsInterface(obj, ifaces)
		_, listed := allow[t.name]
		seen[t.name] = true
		switch {
		case listed && live:
			rep.violations = append(rep.violations, violation{
				pos: l.fset.Position(obj.Pos()),
				msg: fmt.Sprintf("allowlisted %s %s has a production caller; drop its allowlist entry", t.kind, t.name),
			})
		case listed:
			rep.allowed++
		case !live:
			rep.violations = append(rep.violations, violation{
				pos: l.fset.Position(obj.Pos()),
				msg: fmt.Sprintf("exported %s %s has no caller outside tests", t.kind, t.name),
			})
		}
	}
	for name := range allow {
		if !seen[name] {
			rep.violations = append(rep.violations, violation{
				msg: fmt.Sprintf("allowlist entry %s names no exported identifier of an internal package", name),
			})
		}
	}
	sort.Slice(rep.violations, func(i, j int) bool {
		a, b := rep.violations[i], rep.violations[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.msg < b.msg
	})
	return rep
}

// loader type-checks the packages under a root from source. It is the
// types.Importer of its own packages and hands every other path, the
// standard library's, to the compiler's export data.
type loader struct {
	fset    *token.FileSet
	rootMod string            // module path of the root go.mod
	dirs    map[string]string // import path -> directory, every module under root
	std     types.Importer
	info    *types.Info
	pkgs    map[string]*loadedPkg
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	err   error
}

func newLoader(root string) (*loader, error) {
	l := &loader{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		std:  importer.Default(),
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		pkgs: map[string]*loadedPkg{},
	}
	type module struct{ dir, path string }
	var mods []module // innermost last while walking down a branch
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || (strings.HasPrefix(name, ".") && p != root) {
			return filepath.SkipDir
		}
		for len(mods) > 0 && !within(p, mods[len(mods)-1].dir) {
			mods = mods[:len(mods)-1]
		}
		if mp, err := modulePath(filepath.Join(p, "go.mod")); err == nil {
			mods = append(mods, module{p, mp})
			if p == root {
				l.rootMod = mp
			}
		} else if !os.IsNotExist(err) {
			return err
		}
		if len(mods) == 0 {
			return fmt.Errorf("%s: no go.mod at the root", root)
		}
		if names, err := goFiles(p); err != nil || len(names) == 0 {
			return err
		}
		m := mods[len(mods)-1]
		rel, err := filepath.Rel(m.dir, p)
		if err != nil {
			return err
		}
		l.dirs[path.Join(m.path, filepath.ToSlash(rel))] = p
		return nil
	})
	return l, err
}

// paths lists the loader's import paths in order.
func (l *loader) paths() []string {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// within reports whether p is dir or below it.
func within(p, dir string) bool {
	rel, err := filepath.Rel(dir, p)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, "../")
}

// modulePath reads the module line of a go.mod.
func modulePath(file string) (string, error) {
	f, err := os.Open(file)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", file)
}

// goFiles lists a directory's non-test Go files that build here.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			names = append(names, filepath.Join(dir, name))
		}
	}
	return names, nil
}

// Import type-checks one of the loader's packages (once) or delegates a
// standard-library path.
func (l *loader) Import(p string) (*types.Package, error) {
	dir, ok := l.dirs[p]
	if !ok {
		return l.std.Import(p)
	}
	if lp, ok := l.pkgs[p]; ok {
		return lp.pkg, lp.err
	}
	lp := &loadedPkg{}
	l.pkgs[p] = lp
	names, err := goFiles(dir)
	if err != nil {
		lp.err = err
		return nil, err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			lp.err = err
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: l}
	lp.pkg, lp.err = conf.Check(p, l.fset, lp.files, l.info)
	if lp.err != nil {
		lp.err = fmt.Errorf("%s: %w", p, lp.err)
	}
	return lp.pkg, lp.err
}

// target is one audited identifier: its display name (package.Name or
// package.Type.Method), its kind, and the source ranges a use inside
// which does not count.
type target struct {
	name, kind string
	own        [][2]token.Pos
}

func (t *target) owns(pos token.Pos) bool {
	for _, r := range t.own {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// targets collects the exported top-level identifiers, exported methods
// and exported interface methods of the root module's internal packages.
func (l *loader) targets() map[types.Object]*target {
	out := map[types.Object]*target{}
	methods := map[*types.TypeName][][2]token.Pos{}
	add := func(id *ast.Ident, name, kind string, from, to token.Pos) {
		if obj := l.info.Defs[id]; obj != nil && id.IsExported() {
			out[obj] = &target{name: name, kind: kind, own: [][2]token.Pos{{from, to}}}
		}
	}
	for p, lp := range l.pkgs {
		if !strings.HasPrefix(p, l.rootMod+"/internal/") || lp.pkg == nil {
			continue
		}
		pkg := lp.pkg.Name()
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, pkg+"."+d.Name.Name, "function", d.Pos(), d.End())
						continue
					}
					recv := receiver(l.info.Defs[d.Name].(*types.Func))
					if recv == nil {
						continue
					}
					methods[recv] = append(methods[recv], [2]token.Pos{d.Pos(), d.End()})
					add(d.Name, pkg+"."+recv.Name()+"."+d.Name.Name, "method", d.Pos(), d.End())
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, pkg+"."+s.Name.Name, "type", s.Pos(), s.End())
							it, ok := s.Type.(*ast.InterfaceType)
							if !ok {
								continue
							}
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(id, pkg+"."+s.Name.Name+"."+id.Name, "method", m.Pos(), m.End())
								}
							}
						case *ast.ValueSpec:
							kind := "const"
							if d.Tok == token.VAR {
								kind = "var"
							}
							for _, id := range s.Names {
								add(id, pkg+"."+id.Name, kind, s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}
	// A type's own methods are not its callers.
	for tn, ranges := range methods {
		if t, ok := out[tn]; ok {
			t.own = append(t.own, ranges...)
		}
	}
	return out
}

// receiver returns the name of fn's receiver base type, or nil for a
// function.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// origin maps a use of an instantiated generic to the generic itself.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
			return n.Origin().Obj()
		}
	}
	return obj
}

// interfaces indexes, by method name, every interface type the loaded
// program declares or spells, including those of each standard-library
// package it imports, and the predeclared error.
func (l *loader) interfaces() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addType := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				addType(tn.Type())
			}
		}
	}
	addScope(types.Universe)
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || visited[p] {
			return
		}
		visited[p] = true
		addScope(p.Scope())
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, lp := range l.pkgs {
		walk(lp.pkg)
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			addType(tv.Type)
		}
	}
	return out
}

// implementsInterface reports whether obj is a concrete method whose
// receiver type, or a pointer to it, implements an interface that has a
// method of obj's name.
func implementsInterface(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := receiver(fn)
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	t := recv.Type()
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}
