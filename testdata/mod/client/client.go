// Package client holds the cases the doc rule must tell apart.
package client

func Bare() {}

type Plain struct{}

const Limit = 3

// Documented has its doc comment.
func Documented() {}

// The group's comment documents A and B.
const (
	A = 1
	B = 2
)

var Tail = 1 // A trailing line comment documents a var.

func (Plain) Method() {}

type hidden struct{}

// Exported on an unexported type is unreachable API: not audited.
func (hidden) Exported() {}
