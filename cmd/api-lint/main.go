// Command api-lint keeps the API reference honest: it parses the route
// table literal in internal/core/router.go and the route table in API.md
// and fails when either side lists a METHOD+path the other does not — a
// route added without documentation, or documentation for a route that no
// longer exists.
//
// Usage:
//
//	api-lint [router.go] [API.md]
//
// Defaults to internal/core/router.go and API.md relative to the working
// directory, which is how `make lint-api` invokes it.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	routerPath := "internal/core/router.go"
	docPath := "API.md"
	if len(os.Args) > 1 {
		routerPath = os.Args[1]
	}
	if len(os.Args) > 2 {
		docPath = os.Args[2]
	}

	code, err := routesFromSource(routerPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "api-lint: %v\n", err)
		os.Exit(1)
	}
	docs, err := routesFromDoc(docPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "api-lint: %v\n", err)
		os.Exit(1)
	}

	var problems []string
	for _, r := range sortedKeys(code) {
		if !docs[r] {
			problems = append(problems, fmt.Sprintf("route %q is served (%s) but missing from the %s route table", r, routerPath, docPath))
		}
	}
	for _, r := range sortedKeys(docs) {
		if !code[r] {
			problems = append(problems, fmt.Sprintf("route %q is documented (%s) but not present in %s's routeTable", r, docPath, routerPath))
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "api-lint: "+p)
		}
		os.Exit(1)
	}
	fmt.Printf("api-lint: %d routes, routeTable and %s agree\n", len(code), docPath)
}

// routesFromSource extracts "METHOD /path" keys from the routeTable
// composite literal in the router source file.
func routesFromSource(path string) (map[string]bool, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	routes := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) == 0 || spec.Names[0].Name != "routeTable" {
			return true
		}
		for _, v := range spec.Values {
			lit, ok := v.(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, elt := range lit.Elts {
				row, ok := elt.(*ast.CompositeLit)
				if !ok {
					continue
				}
				var method, routePath string
				for _, field := range row.Elts {
					kv, ok := field.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					val, ok := kv.Value.(*ast.BasicLit)
					if !ok || val.Kind != token.STRING {
						continue
					}
					s, err := strconv.Unquote(val.Value)
					if err != nil {
						continue
					}
					switch key.Name {
					case "method":
						method = s
					case "path":
						routePath = s
					}
				}
				if method != "" && routePath != "" {
					routes[method+" "+routePath] = true
				}
			}
		}
		return false
	})
	if len(routes) == 0 {
		return nil, fmt.Errorf("no routeTable entries found in %s", path)
	}
	return routes, nil
}

// docRouteRow matches one row of API.md's four-column route table: the
// method cell, then the backticked path cell, then auth and description.
// The three-column /metrics table and prose mentions of endpoints don't
// match this shape.
var docRouteRow = regexp.MustCompile("^\\| (GET|POST|PUT|PATCH|DELETE) \\| `(/[^`]*)` \\|(?:[^|]*\\|){2}$")

// routesFromDoc extracts "METHOD /path" keys from the API.md route table.
func routesFromDoc(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	routes := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := docRouteRow.FindStringSubmatch(strings.TrimRight(sc.Text(), " "))
		if m == nil {
			continue
		}
		routes[m[1]+" "+m[2]] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("no route-table rows found in %s", path)
	}
	return routes, nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
