//go:build race

package storage

// raceEnabled reports that this binary was built with the race detector;
// allocation-count assertions are skipped there (instrumentation adds its
// own allocations).
const raceEnabled = true
