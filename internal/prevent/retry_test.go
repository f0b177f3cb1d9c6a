package prevent

import (
	"errors"
	"testing"

	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// scriptedSystem is a substrate.System whose scale and migrate calls
// fail according to per-method error scripts (popped one per call, nil
// meaning success), so every transition of the planner's retry/backoff
// state machine can be driven deterministically.
type scriptedSystem struct {
	*fakeSystem
	scaleScript   []error
	migrateScript []error
}

func newScriptedSystem(scale, migrate []error) *scriptedSystem {
	return &scriptedSystem{fakeSystem: newFakeSystem(), scaleScript: scale, migrateScript: migrate}
}

func pop(script *[]error) error {
	if len(*script) == 0 {
		return nil
	}
	err := (*script)[0]
	*script = (*script)[1:]
	return err
}

func (s *scriptedSystem) ScaleCPU(now simclock.Time, id substrate.VMID, v float64) error {
	if err := pop(&s.scaleScript); err != nil {
		s.calls = append(s.calls, "scale_cpu")
		return err
	}
	return s.fakeSystem.ScaleCPU(now, id, v)
}

func (s *scriptedSystem) ScaleMem(now simclock.Time, id substrate.VMID, v float64) error {
	if err := pop(&s.scaleScript); err != nil {
		s.calls = append(s.calls, "scale_mem")
		return err
	}
	return s.fakeSystem.ScaleMem(now, id, v)
}

func (s *scriptedSystem) Migrate(now simclock.Time, id substrate.VMID, cpu, mem float64) error {
	if err := pop(&s.migrateScript); err != nil {
		s.calls = append(s.calls, "migrate")
		return err
	}
	return s.fakeSystem.Migrate(now, id, cpu, mem)
}

// drive calls Prevent once per simulated second (attempt fixed at 0, as
// the controller does while an episode's first option is in flight)
// until a step executes, a terminal error surfaces, or the horizon
// passes. It returns the executed step, the terminal error (nil for a
// step), the number of ErrBackoff ticks observed, and the last tick.
func drive(t *testing.T, p *Planner, horizon int64) (Step, error, int, int64) {
	t.Helper()
	backoffs := 0
	for s := int64(1); s <= horizon; s++ {
		step, err := p.Prevent(simclock.Time(s), cpuDiag("vm1"), 0)
		switch {
		case err == nil:
			return step, nil, backoffs, s
		case errors.Is(err, ErrBackoff):
			backoffs++
		default:
			return Step{}, err, backoffs, s
		}
	}
	t.Fatalf("no terminal outcome within %d ticks", horizon)
	return Step{}, nil, backoffs, horizon
}

var errUnavail = substrate.ErrUnavailable

func TestRetryBackoffStateMachine(t *testing.T) {
	cases := []struct {
		name          string
		policy        Policy
		scaleScript   []error
		migrateScript []error

		wantKind  substrate.ActionKind // zero when wantErr is set
		wantErr   error
		wantCalls []string
	}{
		{
			name:        "transient then success",
			policy:      ScalingFirst,
			scaleScript: []error{errUnavail},
			wantKind:    substrate.ActionScaleCPU,
			// t=1 transient (backoff 2) → t=3 retry succeeds.
			wantCalls: []string{"scale_cpu", "scale_cpu"},
		},
		{
			name:        "transient twice then success",
			policy:      ScalingFirst,
			scaleScript: []error{errUnavail, errUnavail},
			wantKind:    substrate.ActionScaleCPU,
			// t=1 (backoff 2) → t=3 (backoff 4) → t=7 succeeds.
			wantCalls: []string{"scale_cpu", "scale_cpu", "scale_cpu"},
		},
		{
			name:   "transient exhausted falls through to migration",
			policy: ScalingFirst,
			// MaxTransientRetries(3) backoffs, then the 4th transient
			// failure is permanent: scaling is declared down, migrate.
			scaleScript: []error{errUnavail, errUnavail, errUnavail, errUnavail},
			wantKind:    substrate.ActionMigrate,
			wantCalls:   []string{"scale_cpu", "scale_cpu", "scale_cpu", "scale_cpu", "migrate"},
		},
		{
			name:        "permanent insufficient falls through immediately",
			policy:      ScalingFirst,
			scaleScript: []error{substrate.ErrInsufficient},
			wantKind:    substrate.ActionMigrate,
			wantCalls:   []string{"scale_cpu", "migrate"},
		},
		{
			name:        "permanent no-target after insufficient is exhausted",
			policy:      ScalingFirst,
			scaleScript: []error{substrate.ErrInsufficient},
			migrateScript: []error{
				substrate.ErrNoEligibleTarget,
			},
			wantErr:   ErrExhausted,
			wantCalls: []string{"scale_cpu", "migrate"},
		},
		{
			name:          "migration transient then success",
			policy:        MigrationOnly,
			migrateScript: []error{errUnavail},
			wantKind:      substrate.ActionMigrate,
			wantCalls:     []string{"migrate", "migrate"},
		},
		{
			name:          "migration transient exhausted is exhausted",
			policy:        MigrationOnly,
			migrateScript: []error{errUnavail, errUnavail, errUnavail, errUnavail},
			wantErr:       ErrExhausted,
			wantCalls:     []string{"migrate", "migrate", "migrate", "migrate"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newScriptedSystem(tc.scaleScript, tc.migrateScript)
			p, err := NewPlanner(sys, tc.policy, Config{})
			if err != nil {
				t.Fatal(err)
			}
			step, terr, _, _ := drive(t, p, 64)
			if tc.wantErr != nil {
				if !errors.Is(terr, tc.wantErr) {
					t.Fatalf("terminal error = %v, want %v", terr, tc.wantErr)
				}
			} else {
				if terr != nil {
					t.Fatalf("terminal error = %v, want step %v", terr, tc.wantKind)
				}
				if step.Kind != tc.wantKind {
					t.Errorf("step kind = %v, want %v", step.Kind, tc.wantKind)
				}
			}
			if got := sys.calls; !equalStrings(got, tc.wantCalls) {
				t.Errorf("actuator calls = %v, want %v", got, tc.wantCalls)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// retryPending reports whether the VM has a transient retry scheduled
// and not yet due at now: the state the backoff gate reads.
func (p *Planner) retryPending(now simclock.Time, id substrate.VMID) bool {
	rs, ok := p.retry[id]
	return ok && now.Before(rs.nextTry)
}

// TestRetryBackoffTiming pins the deterministic sim-clock schedule: the
// doubling backoff (2, 4, 8, ...) gates exactly when the actuator is
// re-invoked, and calls between deadlines return ErrBackoff without
// touching the substrate.
func TestRetryBackoffTiming(t *testing.T) {
	sys := newScriptedSystem([]error{errUnavail, errUnavail, errUnavail}, nil)
	p, err := NewPlanner(sys, ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantRetryAt := []int64{1, 3, 7, 15} // fail at 1 (+2), 3 (+4), 7 (+8), succeed at 15
	var gotCalls []int64
	for s := int64(1); s <= 20; s++ {
		now := simclock.Time(s)
		pending := p.retryPending(now, "vm1")
		before := len(sys.calls)
		step, perr := p.Prevent(now, cpuDiag("vm1"), 0)
		if pending && len(sys.calls) > before {
			t.Fatalf("t=%d: actuator called while retry pending", s)
		}
		if len(sys.calls) > before {
			gotCalls = append(gotCalls, s)
		}
		if perr == nil {
			if step.Kind != substrate.ActionScaleCPU {
				t.Fatalf("step kind = %v, want scale_cpu", step.Kind)
			}
			break
		}
		if !errors.Is(perr, ErrBackoff) {
			t.Fatalf("t=%d: error = %v, want ErrBackoff", s, perr)
		}
	}
	if len(gotCalls) != len(wantRetryAt) {
		t.Fatalf("actuator invoked at %v, want %v", gotCalls, wantRetryAt)
	}
	for i := range gotCalls {
		if gotCalls[i] != wantRetryAt[i] {
			t.Fatalf("actuator invoked at %v, want %v", gotCalls, wantRetryAt)
		}
	}
}

// TestRetryStateClearsOnSuccess ensures a successful actuation resets
// the VM's transient budget: a later episode gets the full retry count
// again.
func TestRetryStateClearsOnSuccess(t *testing.T) {
	sys := newScriptedSystem([]error{errUnavail}, nil)
	p, err := NewPlanner(sys, ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, backoffs, _ := drive(t, p, 16); backoffs == 0 {
		t.Fatal("expected at least one backoff tick")
	}
	// Second episode: three fresh transients must all be absorbed.
	sys.scaleScript = []error{errUnavail, errUnavail, errUnavail}
	step, terr, _, _ := drive(t, p, 64)
	if terr != nil {
		t.Fatalf("second episode error = %v, want scaled step", terr)
	}
	if step.Kind != substrate.ActionScaleCPU {
		t.Errorf("second episode step = %v, want scale_cpu", step.Kind)
	}
}
