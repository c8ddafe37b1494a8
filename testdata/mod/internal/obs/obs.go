// Package obs stands in for the module's metric labels.
package obs

// Label is one metric label.
type Label struct{ Key, Value string }

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// bucket passes a variable, but the obs package is exempt.
func bucket(le string) Label { return L("le", le) }
