// Package reach is the facade of the fixture that TestReachabilityFixture
// scans for unreached functions. The go tool ignores testdata, so the
// import paths here resolve only inside the scan.
package reach

import "reach/internal/lib"

// Open returns a *lib.Thing, which makes Thing's exported methods part
// of the facade's API.
func Open() *lib.Thing { return lib.NewThing() }

// Start ticks an App through the Ticker interface.
func Start() { lib.Run(lib.App{}) }
