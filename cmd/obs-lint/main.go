// Command obs-lint statically enforces the observability layer's bounded-
// cardinality contract: every label value handed to obs.L(...) or written
// into an obs.Label{...} literal must be a compile-time string constant.
// Label values that flow in from user input (keywords, user ids, tokens)
// would mint an unbounded number of series; the obs registry catches that
// at runtime with its per-family series cap, and this lint catches it at
// build time, before the code ever runs.
//
// The tool is AST-only and dependency-free. An expression counts as
// constant when it is a string literal, a concatenation of constants, or an
// identifier declared in a `const` block of the same package. Anything else
// — variables, function results, selector expressions — is rejected.
//
// Usage:
//
//	obs-lint [dir ...]        # default: . ; a trailing /... is accepted
//
// _test.go files are skipped (tests may synthesize labels to provoke the
// runtime cap), and so is internal/obs itself, whose exposition writer
// builds the reserved "le" bucket label from float bounds.
//
// That every family has a reader — a runbook line in OPERATIONS.md or a
// benchmark metric — is not checked here but by the tier-1 test
// TestEveryMetricFamilyHasAReader (internal/core), which scrapes the
// registry /metrics actually serves, per-route families included; an AST
// walk would have to re-derive that list.
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
	"strconv"
	"strings"
)

// obsImportPath is the package whose label constructors are audited.
const obsImportPath = "modissense/internal/obs"

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
			fmt.Fprintf(os.Stderr, "obs-lint: %v\n", err)
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
			fmt.Fprintf(os.Stderr, "obs-lint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		violations = append(violations, v...)
		audited += n
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "%s: %s\n", v.pos, v.msg)
		}
		fmt.Fprintf(os.Stderr, "obs-lint: %d non-constant label value(s) — label values must come from a fixed enum, never from user input\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("obs-lint: ok (%d label construction sites audited)\n", audited)
}

// collectDirs gathers every directory under root that can hold Go source,
// skipping VCS metadata, testdata trees and the obs package itself.
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
		if filepath.ToSlash(path) == filepath.ToSlash(filepath.Join(root, "internal/obs")) ||
			strings.HasSuffix(filepath.ToSlash(path), "internal/obs") {
			return filepath.SkipDir
		}
		dirs[path] = true
		return nil
	})
}

// lintDir parses one package directory and returns its violations plus the
// number of audited label construction sites.
func lintDir(fset *token.FileSet, dir string) ([]violation, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, 0, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, 0, nil
	}

	// Identifiers declared in const blocks anywhere in the package count as
	// compile-time constants for the folding check below.
	consts := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			decl, ok := n.(*ast.GenDecl)
			if !ok || decl.Tok != token.CONST {
				return true
			}
			for _, spec := range decl.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						consts[id.Name] = true
					}
				}
			}
			return true
		})
	}

	var violations []violation
	audited := 0
	for _, f := range files {
		obsName := obsImportName(f)
		if obsName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == obsName && sel.Sel.Name == "L" && len(node.Args) == 2 {
						audited++
						for i, arg := range node.Args {
							if !isConstString(arg, consts) {
								role := "key"
								if i == 1 {
									role = "value"
								}
								violations = append(violations, violation{
									pos: fset.Position(arg.Pos()),
									msg: fmt.Sprintf("obs.L %s %s is not a compile-time constant", role, exprString(arg)),
								})
							}
						}
					}
				}
			case *ast.CompositeLit:
				if sel, ok := node.Type.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == obsName && sel.Sel.Name == "Label" {
						audited++
						for i, elt := range node.Elts {
							expr := elt
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								expr = kv.Value
							} else if i > 1 {
								continue
							}
							if !isConstString(expr, consts) {
								violations = append(violations, violation{
									pos: fset.Position(expr.Pos()),
									msg: fmt.Sprintf("obs.Label field %s is not a compile-time constant", exprString(expr)),
								})
							}
						}
					}
				}
			}
			return true
		})
	}
	return violations, audited, nil
}

// obsImportName returns the local name the file imports obsImportPath
// under, or "" when the file does not import it.
func obsImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != obsImportPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "obs"
	}
	return ""
}

// isConstString reports whether expr folds to a string constant: a string
// literal, a concatenation of constants, a parenthesized constant, or an
// identifier declared const in this package.
func isConstString(expr ast.Expr, consts map[string]bool) bool {
	switch e := expr.(type) {
	case *ast.BasicLit:
		return e.Kind == token.STRING
	case *ast.Ident:
		return consts[e.Name]
	case *ast.ParenExpr:
		return isConstString(e.X, consts)
	case *ast.BinaryExpr:
		return e.Op == token.ADD && isConstString(e.X, consts) && isConstString(e.Y, consts)
	}
	return false
}

// exprString renders a short source-ish form of expr for diagnostics.
func exprString(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name + "." + e.Sel.Name
		}
		return "…." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.BasicLit:
		return e.Value
	}
	return fmt.Sprintf("%T", expr)
}
