//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation adds allocations, so absolute allocs/op tests skip.
const raceEnabled = true
