//go:build race

package detector

// raceEnabled reports whether the race detector is instrumenting this
// build. Under it sync.Pool drops items at random, so a pooled working
// set is sometimes allocated afresh.
const raceEnabled = true
