package main

// The caller check: every exported function, method, type, const and var
// of the module's internal packages has a use in a non-test file. Callers
// are every non-test package under the module root, nested modules (the
// repository benchmark) included; uses inside the identifier's own
// declaration, and a type's uses inside its own methods, do not count. A
// method that implements a method of any interface the program can see
// (its own packages' and every standard-library package they import)
// counts as used, and a use of an instantiated generic counts for its
// origin. Everything is type-checked from source with go/types; nothing is
// run.

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
	"sort"
	"strings"
)

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
	"kvstore.Table.Get":                "test seam: TestScenarioPrimaryKill reads the fenced zombie row back; the point-read path (Bloom filters) hangs off it",
	"kvstore.Table.NodeHealth":         "test seam: the bench, core and query failover tests read the detector's ladder",
	"kvstore.Table.WaitFailover":       "test seam: the bench and core failover tests wait out an asynchronous promotion",
	"kvstore.Table.CatchUpReplication": "test seam: the bench and query replica tests start from converged replicas",
	"kvstore.Table.SplitRegion":        "test seam: kvstore's split-vs-scan, split-vs-replication and split-then-replay tests; the one entry to the region split DESIGN §5 describes",
	"kvstore.Region.PrimaryNode":       "test seam: the bench, core and query failover tests locate a region's primary",
	"kvstore.Region.Epoch":             "test seam: TestScenarioPrimaryKill checks the epoch a promotion bumps",
	"exec.RetryBudget.Attempts":        "test seam: TestScenarioOverload bounds retries + hedges by the credited attempts",
	"query.Engine.RetryBudget":         "test seam: TestScenarioOverload reads the engine's budget",
	"query.Engine.SetFaultInjector":    "test seam: arms read faults in the bench and core scenario tests",
	"matview.HotInView.Floor":          "test seam: the core and query trending tests check the coverage floor a clamp reports",
	"matview.ResultCache.Len":          "test seam: the query result-cache tests check what was memoized",
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

// checkUnused type-checks every non-test package under root (a module
// root) and reports the exported identifiers of root's internal packages
// that nothing outside a _test.go file uses, plus every stale entry of
// allow.
func checkUnused(root string, allow map[string]string) (unusedReport, error) {
	l, err := newLoader(root)
	if err != nil {
		return unusedReport{}, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return unusedReport{}, err
		}
	}

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
	return rep, nil
}

// loader type-checks the packages under a root from source. It is the
// types.Importer of its own packages and hands every other path to the
// standard library's source importer.
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
	fset := token.NewFileSet()
	// Type-checking needs no C: the pure-Go variants of cgo packages
	// declare the same API.
	build.Default.CgoEnabled = false
	l := &loader{
		fset: fset,
		dirs: map[string]string{},
		std:  importer.ForCompiler(fset, "source", nil),
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
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
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
