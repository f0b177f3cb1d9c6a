package lib

type Thing struct{}

func NewThing() *Thing { return &Thing{} }

// Name is kept: nothing calls it, but the facade's Open returns *Thing.
func (*Thing) Name() string { return "thing" }

// Unused is reported: nothing calls it.
func Unused() {}

// ForSecond is kept: only the second module calls it.
func ForSecond() {}

type Ticker interface {
	Tick()
	Stop()
}

// Run calls Ticker.Tick, which reaches App.Tick.
func Run(t Ticker) {
	t.Tick()
	t.Stop()
}

type App struct{}

// Tick is kept: App implements Ticker and Run calls Ticker.Tick.
func (App) Tick() {}

func (App) Stop() {}

type Clock struct{}

// Tick is reported: Clock has no Stop, so it does not implement Ticker,
// whose Tick shares only the name.
func (Clock) Tick() {}
