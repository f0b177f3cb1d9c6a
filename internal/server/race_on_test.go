//go:build race

package server

// raceEnabled reports whether the race detector is instrumenting this
// build. Under it sync.Pool drops items at random, so a pooled decode
// state or response buffer is sometimes allocated afresh.
const raceEnabled = true
