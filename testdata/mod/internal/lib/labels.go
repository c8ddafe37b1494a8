package lib

import "fixture/internal/obs"

const (
	status = "ok"
	prefix = "fixture"
)

// labels holds the label rule's cases in one package.
func labels(route string) []obs.Label {
	status := route + "!" // shadows the const: flagged
	return []obs.Label{
		obs.L("route", route),            // a variable: flagged
		obs.L("status", status),          // flagged
		obs.L("family", prefix+"_total"), // constant concatenation: passes
		{Key: "route", Value: route},     // flagged
		obs.Label{Key: "k", Value: "v"},  // constant fields: pass
	}
}
