package control

import (
	"reflect"
	"testing"

	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// TestDecide pins the tick's policy, one Plan per case:
//   - confirmed VMs are targeted in vmOrder;
//   - downstream victims, whose alert episode started more than one
//     sampling interval after the earliest, are filtered out;
//   - a persistent real violation or a workload change disables that
//     filter so every alerting VM gets relief;
//   - the reactive baseline blames the busiest VM by CPU sample when the
//     violation persists and no filter confirmed;
//   - due validations carry whether the VM's alerts stopped, or are
//     dropped unexamined under the DisableValidation ablation.
func TestDecide(t *testing.T) {
	const k = 3 // the default FilterK
	type vm struct {
		lastAlert, onset simclock.Time // lastAlert 0: never alerted
		cpu              float64
		due              simclock.Time // deadline of a pending action, 0: none
	}
	for _, tc := range []struct {
		name         string
		reactive     bool
		noValidation bool
		now          simclock.Time
		vms          [3]vm
		confirmed    []int
		streak       int
		workload     bool
		want         Plan
	}{
		{
			name: "first alert starts an episode", now: 100,
			confirmed: []int{1},
			want:      Plan{Alerts: []int{1}, Busiest: -1, Onsets: []int{1}, Targets: []int{1}},
		},
		{
			name: "near-simultaneous onsets both act", now: 105,
			vms:       [3]vm{1: {lastAlert: 100, onset: 100}},
			confirmed: []int{1, 2},
			want:      Plan{Alerts: []int{1, 2}, Busiest: -1, Onsets: []int{2}, Targets: []int{1, 2}},
		},
		{
			name: "a later onset is a downstream victim", now: 110,
			vms:       [3]vm{1: {lastAlert: 105, onset: 100}, 2: {lastAlert: 105, onset: 105}},
			confirmed: []int{0, 1, 2},
			want:      Plan{Alerts: []int{0, 1, 2}, Busiest: -1, Onsets: []int{0}, Targets: []int{1, 2}},
		},
		{
			name: "a persistent violation acts on every alerting VM", now: 115,
			vms:       [3]vm{{lastAlert: 110, onset: 110}, {lastAlert: 110, onset: 100}, {lastAlert: 110, onset: 105}},
			confirmed: []int{0, 1, 2}, streak: k,
			want: Plan{Alerts: []int{0, 1, 2}, Busiest: -1, Targets: []int{0, 1, 2}},
		},
		{
			name: "a workload change acts on every alerting VM", now: 110,
			vms:       [3]vm{1: {lastAlert: 105, onset: 100}, 2: {lastAlert: 105, onset: 105}},
			confirmed: []int{0, 1, 2}, workload: true,
			want: Plan{Alerts: []int{0, 1, 2}, Busiest: -1, Onsets: []int{0}, Targets: []int{0, 1, 2}},
		},
		{
			name: "a quiet gap starts a fresh episode", now: 200,
			vms:       [3]vm{{lastAlert: 115, onset: 110}, {lastAlert: 115, onset: 100}, {lastAlert: 115, onset: 105}},
			confirmed: []int{2},
			want:      Plan{Alerts: []int{2}, Busiest: -1, Onsets: []int{2}, Targets: []int{2}},
		},
		{
			name: "reactive fallback blames the busiest VM", reactive: true, now: 100,
			vms:    [3]vm{{cpu: 13}, {cpu: 14}, {cpu: 0}},
			streak: k,
			want:   Plan{Alerts: []int{1}, Busiest: 1, Onsets: []int{1}, Targets: []int{1}},
		},
		{
			name: "reactive fallback blames a deviant busiest VM", reactive: true, now: 100,
			vms:    [3]vm{{cpu: 13}, {cpu: 99}, {cpu: 0}},
			streak: k,
			want:   Plan{Alerts: []int{1}, Busiest: 1, Onsets: []int{1}, Targets: []int{1}},
		},
		{
			name: "reactive fallback waits for k violated ticks", reactive: true, now: 100,
			vms:    [3]vm{{cpu: 13}, {cpu: 14}, {cpu: 0}},
			streak: k - 1,
			want:   Plan{Busiest: -1},
		},
		{
			name: "reactive fallback stands down when a filter confirmed", reactive: true, now: 100,
			vms:       [3]vm{{cpu: 13}, {cpu: 14}, {cpu: 0}},
			confirmed: []int{0}, streak: k,
			want: Plan{Alerts: []int{0}, Busiest: -1, Onsets: []int{0}, Targets: []int{0}},
		},
		{
			name: "reactive fallback needs a non-negative CPU sample", reactive: true, now: 100,
			vms:    [3]vm{{cpu: -0.5}, {cpu: -0.5}, {cpu: -0.5}},
			streak: k,
			want:   Plan{Busiest: -1},
		},
		{
			name: "PREPARE has no fallback", now: 100,
			vms:    [3]vm{{cpu: 13}, {cpu: 14}, {cpu: 0}},
			streak: k,
			want:   Plan{Busiest: -1},
		},
		{
			name: "DisableValidation drops due validations", noValidation: true, now: 100,
			vms:  [3]vm{{due: 100}, {due: 101}, {due: 90}},
			want: Plan{Busiest: -1, Dropped: []int{0, 2}},
		},
		{
			name: "a due validation without alerts sees them stopped", now: 100,
			vms:  [3]vm{{due: 100}, {due: 101}},
			want: Plan{Busiest: -1, Validations: []Validation{{VM: 0, AlertsStopped: true}}},
		},
		{
			name: "a due validation with a confirmed alert sees it continue", now: 100,
			vms:       [3]vm{{due: 100}, {due: 95}},
			confirmed: []int{1},
			want: Plan{Alerts: []int{1}, Busiest: -1, Onsets: []int{1}, Targets: []int{1},
				Validations: []Validation{{VM: 0, AlertsStopped: true}, {VM: 1, AlertsStopped: false}}},
		},
		{
			name: "a due validation under violation sees alerts continue", now: 100,
			vms:    [3]vm{{due: 100}},
			streak: 1,
			want:   Plan{Busiest: -1, Validations: []Validation{{VM: 0, AlertsStopped: false}}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{SamplingIntervalS: 5, DisableValidation: tc.noValidation}.withDefaults()
			if cfg.FilterK != k {
				t.Fatalf("default FilterK %d, want %d", cfg.FilterK, k)
			}
			scheme := SchemePREPARE
			if tc.reactive {
				scheme = SchemeReactive
			}
			vms := newVMStates([]substrate.VMID{"vm1", "vm2", "vm3"})
			for i, v := range tc.vms {
				if v.lastAlert != 0 {
					vms[i].lastAlert, vms[i].episodeOnset = v.lastAlert, v.onset
				}
				vms[i].cpu = v.cpu
				if v.due != 0 {
					vms[i].pending = &pendingValidation{deadline: v.due}
				}
			}
			got := decide(cfg, scheme, tc.now, vms, tc.confirmed, tc.streak, tc.workload)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decide:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
