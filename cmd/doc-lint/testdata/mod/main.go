// Command fixture is the production caller of package lib.
package main

import "fixture/internal/lib"

func main() {
	_ = lib.NewSquare(2).Area()
	_ = lib.Max(1, 2)
	_ = lib.Max[float64](1, 2)
	_ = lib.Box[int]{}.Get()
}
