//go:build race

package query

// raceEnabled reports a build under the race detector.
const raceEnabled = true
