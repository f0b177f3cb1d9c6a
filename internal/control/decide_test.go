package control

import (
	"reflect"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// defaultFilter is the paper's 3-of-4 filter, the one a default Config
// builds.
func defaultFilter() detector.AlarmFilter {
	f, err := detector.NewAlarmFilter(detector.DefaultAlarmK, detector.DefaultAlarmW)
	if err != nil {
		panic(err)
	}
	return f
}

// TestDecide pins the tick's policy, one Plan per case:
//   - a VM alerts when at least 3 of its last 4 raw votes were alerts,
//     counting only votes since its window was last reset;
//   - confirmed VMs are targeted in vmOrder;
//   - downstream victims, whose alert episode started more than one
//     sampling interval after the earliest, are filtered out;
//   - a persistent real violation or a workload change disables that
//     filter so every alerting VM gets relief;
//   - the reactive baseline blames the busiest VM by CPU sample when the
//     violation persists and no filter confirmed, raw votes or not;
//   - due validations carry whether the VM's alerts stopped, or are
//     dropped unexamined under the DisableValidation ablation.
func TestDecide(t *testing.T) {
	const k = 3 // the default FilterK
	type vm struct {
		// votes are the raw votes observe pushed, oldest first: '1' an
		// alert, '0' none, '|' a window reset.
		votes            string
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
		streak       int
		workload     bool
		want         Plan
	}{
		{
			name: "first alert starts an episode", now: 100,
			vms:  [3]vm{1: {votes: "111"}},
			want: Plan{Alerts: []int{1}, Onsets: []int{1}, Targets: []int{1}},
		},
		{
			name: "near-simultaneous onsets both act", now: 105,
			vms:  [3]vm{1: {votes: "1111", lastAlert: 100, onset: 100}, 2: {votes: "0111"}},
			want: Plan{Alerts: []int{1, 2}, Onsets: []int{2}, Targets: []int{1, 2}},
		},
		{
			name: "a later onset is a downstream victim", now: 110,
			vms: [3]vm{{votes: "111"}, {votes: "1111", lastAlert: 105, onset: 100},
				{votes: "1111", lastAlert: 105, onset: 105}},
			want: Plan{Alerts: []int{0, 1, 2}, Onsets: []int{0}, Targets: []int{1, 2}},
		},
		{
			name: "a persistent violation acts on every alerting VM", now: 115,
			vms: [3]vm{{votes: "1111", lastAlert: 110, onset: 110}, {votes: "1111", lastAlert: 110, onset: 100},
				{votes: "1111", lastAlert: 110, onset: 105}},
			streak: k,
			want:   Plan{Alerts: []int{0, 1, 2}, Targets: []int{0, 1, 2}},
		},
		{
			name: "a workload change acts on every alerting VM", now: 110,
			vms: [3]vm{{votes: "111"}, {votes: "1111", lastAlert: 105, onset: 100},
				{votes: "1111", lastAlert: 105, onset: 105}},
			workload: true,
			want:     Plan{Alerts: []int{0, 1, 2}, Onsets: []int{0}, Targets: []int{0, 1, 2}},
		},
		{
			name: "a quiet gap starts a fresh episode", now: 200,
			vms: [3]vm{{votes: "11110000", lastAlert: 115, onset: 110}, {votes: "11110000", lastAlert: 115, onset: 100},
				{votes: "111", lastAlert: 115, onset: 105}},
			want: Plan{Alerts: []int{2}, Onsets: []int{2}, Targets: []int{2}},
		},
		{
			name: "reactive fallback blames the busiest VM", reactive: true, now: 100,
			vms:    [3]vm{{cpu: 13}, {cpu: 14}, {cpu: 0}},
			streak: k,
			want:   Plan{Alerts: []int{1}, Onsets: []int{1}, Targets: []int{1}},
		},
		{
			name: "reactive fallback blames a deviant busiest VM", reactive: true, now: 100,
			vms:    [3]vm{{cpu: 13}, {cpu: 99}, {cpu: 0}},
			streak: k,
			want:   Plan{Alerts: []int{1}, Onsets: []int{1}, Targets: []int{1}},
		},
		{
			name: "reactive raw votes short of k are suppressed while the fallback fires", reactive: true, now: 100,
			vms:    [3]vm{{votes: "0101", cpu: 13}, {votes: "1001", cpu: 14}, {cpu: 0}},
			streak: k,
			want:   Plan{Alerts: []int{1}, Onsets: []int{1}, Targets: []int{1}},
		},
		{
			name: "reactive fallback waits for k violated ticks", reactive: true, now: 100,
			vms:    [3]vm{{cpu: 13}, {cpu: 14}, {cpu: 0}},
			streak: k - 1,
			want:   Plan{},
		},
		{
			name: "reactive fallback stands down when a filter confirmed", reactive: true, now: 100,
			vms:    [3]vm{{votes: "111", cpu: 13}, {cpu: 14}, {cpu: 0}},
			streak: k,
			want:   Plan{Alerts: []int{0}, Onsets: []int{0}, Targets: []int{0}},
		},
		{
			name: "reactive fallback needs a non-negative CPU sample", reactive: true, now: 100,
			vms:    [3]vm{{cpu: -0.5}, {cpu: -0.5}, {cpu: -0.5}},
			streak: k,
			want:   Plan{},
		},
		{
			name: "PREPARE has no fallback", now: 100,
			vms:    [3]vm{{cpu: 13}, {cpu: 14}, {cpu: 0}},
			streak: k,
			want:   Plan{},
		},
		{
			name: "3 of 4 across a one-tick gap confirms", now: 100,
			vms:  [3]vm{{votes: "1101"}, {votes: "1011"}, {votes: "0111"}},
			want: Plan{Alerts: []int{0, 1, 2}, Onsets: []int{0, 1, 2}, Targets: []int{0, 1, 2}},
		},
		{
			name: "2 of 4 does not confirm", now: 100,
			vms:  [3]vm{{votes: "0101"}, {votes: "1100"}, {votes: "11100"}},
			want: Plan{},
		},
		{
			name: "votes from before a reset do not count", now: 100,
			vms:  [3]vm{{votes: "111|1"}, {votes: "11|11"}, {votes: "1|111"}},
			want: Plan{Alerts: []int{2}, Onsets: []int{2}, Targets: []int{2}},
		},
		{
			name: "DisableValidation drops due validations", noValidation: true, now: 100,
			vms:  [3]vm{{due: 100}, {due: 101}, {due: 90}},
			want: Plan{Dropped: []int{0, 2}},
		},
		{
			name: "a due validation without alerts sees them stopped", now: 100,
			vms:  [3]vm{{due: 100}, {due: 101}},
			want: Plan{Validations: []Validation{{VM: 0, AlertsStopped: true}}},
		},
		{
			name: "a due validation with a confirmed alert sees it continue", now: 100,
			vms: [3]vm{{due: 100}, {votes: "111", due: 95}},
			want: Plan{Alerts: []int{1}, Onsets: []int{1}, Targets: []int{1},
				Validations: []Validation{{VM: 0, AlertsStopped: true}, {VM: 1, AlertsStopped: false}}},
		},
		{
			name: "a due validation under violation sees alerts continue", now: 100,
			vms:    [3]vm{{due: 100}},
			streak: 1,
			want:   Plan{Validations: []Validation{{VM: 0, AlertsStopped: false}}},
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
			vms := newVMStates([]substrate.VMID{"vm1", "vm2", "vm3"}, defaultFilter())
			for i, v := range tc.vms {
				for _, vote := range v.votes {
					if vote == '|' {
						vms[i].filter.Reset()
					} else {
						vms[i].filter.Push(vote == '1')
					}
				}
				if v.lastAlert != 0 {
					vms[i].lastAlert, vms[i].episodeOnset = v.lastAlert, v.onset
				}
				vms[i].cpu = v.cpu
				if v.due != 0 {
					vms[i].pending = &pendingValidation{deadline: v.due}
				}
			}
			got := decide(cfg, scheme, tc.now, vms, nil, tc.streak, tc.workload)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decide:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
