//go:build !race

package barra

// raceEnabled reports a -race build, in which sync.Pool drops a
// share of its puts at random.
const raceEnabled = false
