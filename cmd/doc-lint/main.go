// Command doc-lint runs two checks over the library surface.
//
// The doc check enforces the godoc contract on the packages it is pointed
// at: every exported top-level identifier — functions, methods, types, and
// the exported names of const/var declarations — must carry a doc comment.
// Grouped const/var declarations satisfy the rule with a comment on the
// group or on the individual spec. It is AST-only.
//
// The caller check (unused.go) always runs over the module in the current
// directory: every exported function, method, type, const and var of its
// internal packages must be used outside _test.go files, in the module or
// in a module nested under it (the repository benchmark), unless a short
// allowlist in the tool names it with the reason it is kept.
//
// Both use the standard library alone, siblings of obs-lint: they make the
// documentation pass and the "one entry point per mechanism" rule
// build-time gates instead of review-time conventions.
//
// Usage, from the module root:
//
//	doc-lint [dir ...]        # doc check roots; default: . ; a trailing /... is accepted
//
// _test.go files are skipped by both: test helpers are internal to their
// file and documented where it helps, not by mandate, and a test is not a
// production caller.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type violation struct {
	pos token.Position
	msg string
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	dirs := map[string]bool{}
	for _, root := range roots {
		root = strings.TrimSuffix(root, "/...")
		if root == "" {
			root = "."
		}
		if err := collectDirs(root, dirs); err != nil {
			fmt.Fprintf(os.Stderr, "doc-lint: %v\n", err)
			os.Exit(2)
		}
	}

	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	fset := token.NewFileSet()
	var violations []violation
	audited := 0
	for _, dir := range sorted {
		v, n, err := lintDir(fset, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doc-lint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		violations = append(violations, v...)
		audited += n
	}

	unused, err := checkUnused(".", allowlist)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-lint: %v\n", err)
		os.Exit(2)
	}

	printViolations(violations)
	printViolations(unused.violations)
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "doc-lint: %d undocumented exported identifier(s)\n", len(violations))
	}
	if len(unused.violations) > 0 {
		fmt.Fprintf(os.Stderr, "doc-lint: %d exported identifier(s) without a production caller or stale allowlist entries\n", len(unused.violations))
	}
	if len(violations) > 0 || len(unused.violations) > 0 {
		os.Exit(1)
	}
	fmt.Printf("doc-lint: ok (%d exported identifiers documented; %d in internal packages with a production caller, %d allowlisted)\n",
		audited, unused.audited-unused.allowed, unused.allowed)
}

func printViolations(vs []violation) {
	for _, v := range vs {
		if v.pos.IsValid() {
			fmt.Fprintf(os.Stderr, "%s: %s\n", v.pos, v.msg)
		} else {
			fmt.Fprintf(os.Stderr, "%s\n", v.msg)
		}
	}
}

// collectDirs gathers every directory under root that can hold Go source,
// skipping VCS metadata and testdata trees.
func collectDirs(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == ".git" || name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
			return filepath.SkipDir
		}
		dirs[path] = true
		return nil
	})
}

// lintDir parses one package directory and returns its violations plus the
// number of exported identifiers audited.
func lintDir(fset *token.FileSet, dir string) ([]violation, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var violations []violation
	audited := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, 0, err
		}
		v, n := lintFile(fset, f)
		violations = append(violations, v...)
		audited += n
	}
	return violations, audited, nil
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
