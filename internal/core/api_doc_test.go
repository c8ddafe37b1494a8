package core

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// docRouteRow matches one row of API.md's four-column route table: the
// method cell, then the backticked path cell, then auth and description.
// Prose mentions of endpoints don't match this shape.
var docRouteRow = regexp.MustCompile("^\\| (GET|POST|PUT|PATCH|DELETE) \\| `(/[^`]*)` \\|(?:[^|]*\\|){2}$")

// routeDrift compares served routes with the route-table rows of an API
// document in both directions: one problem per route only one side lists.
func routeDrift(served []route, doc string) []string {
	var problems []string
	documented := map[string]bool{}
	var rows []string
	for _, line := range strings.Split(doc, "\n") {
		if m := docRouteRow.FindStringSubmatch(strings.TrimRight(line, " \r")); m != nil {
			documented[m[1]+" "+m[2]] = true
			rows = append(rows, m[1]+" "+m[2])
		}
	}
	isServed := map[string]bool{}
	for _, rt := range served {
		r := rt.method + " " + rt.path
		isServed[r] = true
		if !documented[r] {
			problems = append(problems, "route "+r+" is served but missing from API.md's route table")
		}
	}
	for _, r := range rows {
		if !isServed[r] {
			problems = append(problems, "route "+r+" is documented in API.md but not in routeTable")
		}
	}
	return problems
}

// TestRouteTableMatchesAPIDoc: every row of routeTable has a row in
// API.md's route table, and every row there is served.
func TestRouteTableMatchesAPIDoc(t *testing.T) {
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	problems := routeDrift(routeTable, string(doc))
	for _, p := range problems {
		t.Error(p)
	}
	if len(problems) == 0 {
		t.Logf("%d routes, routeTable and API.md agree", len(routeTable))
	}
}

// TestRouteDriftSeeded: a route served but not documented and a route
// documented but not served are both reported; prose naming a route is not
// a row.
func TestRouteDriftSeeded(t *testing.T) {
	doc := "| Method | Path | Auth | Description |\n" +
		"|---|---|---|---|\n" +
		"| POST | `/signin` | — | Sign in |\n" +
		"| GET | `/gone` | query | Removed long ago |\n" +
		"See GET `/new` below.\n"
	served := []route{{method: "POST", path: "/signin"}, {method: "GET", path: "/new"}}
	want := []string{
		"route GET /new is served but missing from API.md's route table",
		"route GET /gone is documented in API.md but not in routeTable",
	}
	if got := routeDrift(served, doc); !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}
