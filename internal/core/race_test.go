//go:build race

package core

// raceEnabled reports a -race build. The race detector's
// instrumentation allocates, so the zero-alloc assertions are skipped
// under it; builds without -race still enforce them.
const raceEnabled = true
