//go:build race

package dsdb_test

// raceEnabled reports whether the race detector is on: it instruments
// memory accesses and allocates, so allocation counts mean nothing.
const raceEnabled = true
