// Package lib holds the cases the unused-identifier check must tell apart.
package lib

// Unused has no caller at all: flagged.
func Unused() {}

// TestOnly is called from lib_test.go only: flagged.
func TestOnly() int { return 1 }

// Shape is what main measures.
type Shape interface {
	// Area is the shape's area.
	Area() float64
}

// Square is reached only through Shape.
type Square struct{ Side float64 }

// Area implements Shape: nothing names Square.Area, and it is not flagged.
func (s Square) Area() float64 { return s.Side * s.Side }

// NewSquare builds a Square behind its interface; it is allowlisted although
// main calls it, so its entry is flagged.
func NewSquare(side float64) Shape { return Square{Side: side} }

// Max is generic and called through instantiations only: not flagged.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Box is a generic type whose method is called on an instantiation only.
type Box[T any] struct{ v T }

// Get is used through Box[int]: its use counts for the generic method, so
// it is not flagged.
func (b Box[T]) Get() T { return b.v }

// Seam has no production caller but is allowlisted: not flagged.
func Seam() {}
