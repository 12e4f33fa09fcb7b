//go:build race

package node

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random share of the messages put back into it.
const raceEnabled = true
