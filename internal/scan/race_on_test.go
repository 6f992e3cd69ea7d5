//go:build race

package scan

// raceEnabled reports whether the race detector is active; alloc-count
// assertions are skipped under it (its instrumentation allocates).
const raceEnabled = true
