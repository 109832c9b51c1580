//go:build race

package transport

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation changes what some calls allocate.
const raceEnabled = true
