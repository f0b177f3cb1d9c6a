package control

import (
	"math"
	"slices"

	"prepare/internal/simclock"
)

// never is the lastAlert and lastMigration of a VM that has had neither:
// far enough back that every episode gap and migration cooldown is over.
const never = simclock.Time(math.MinInt64 / 2)

// Plan is one sampling tick's decisions. VMs are indices into vmOrder,
// and every list is ascending.
type Plan struct {
	// Alerts lists the VMs alerting this tick: the ones whose k-of-W
	// filter confirmed, or the reactive fallback's pick.
	Alerts []int
	// Onsets lists the alerting VMs whose alert episode starts now.
	Onsets []int
	// Validations lists the pending actions due for their check; Dropped,
	// the due ones the DisableValidation ablation discards unexamined.
	Validations []Validation
	Dropped     []int
	// Targets lists the alerting VMs to act on.
	Targets []int
}

// Validation is one due effectiveness check.
type Validation struct {
	VM            int
	AlertsStopped bool // the VM is not alerting this tick and the SLO holds
}

// decide is the tick's policy. It reads only its arguments — the VMs'
// state, whose k-of-W vote windows hold observe's raw votes up to this
// tick, the count of consecutive violated sampling ticks including this
// one, and whether every VM changed at once (a workload change). It
// touches neither the substrate, the sampler, telemetry nor the clock.
// The plan's Alerts are appended to alerts, an empty buffer the caller
// reuses across ticks.
//
// A VM alerts when its filter confirms: at least K of its last W raw
// votes were alerts (the paper's false alarm filter).
//
// Targeting is propagation-aware fault localization: the alerting VMs
// whose episode onset is within one sampling interval of the earliest
// onset are acted upon. Downstream victims alert later than the faulty
// VM, so they are filtered out; near-simultaneous onsets are all acted
// upon, as in the paper's two-VM example.
func decide(cfg Config, scheme Scheme, now simclock.Time, vms []vmState, alerts []int, violatedStreak int, workloadChange bool) Plan {
	for i := range vms {
		if vms[i].filter.Confirmed() {
			alerts = append(alerts, i)
		}
	}
	p := Plan{Alerts: alerts}
	if scheme == SchemeReactive && len(alerts) == 0 && violatedStreak >= cfg.FilterK {
		// The violation is real and persistent, but no per-VM classifier
		// fired (e.g., the symptom manifests only in the SLO): blame the
		// busiest VM so the reactive baseline still intervenes, as its
		// real counterpart would.
		if b := busiest(vms); b >= 0 {
			p.Alerts = append(alerts, b)
		}
	}

	for i := range vms {
		if pv := vms[i].pending; pv == nil || now.Before(pv.deadline) {
			continue
		}
		if cfg.DisableValidation {
			// Ablation mode: drop the pending action unexamined; the
			// attempt ladder never advances past the first choice.
			p.Dropped = append(p.Dropped, i)
			continue
		}
		_, alerting := slices.BinarySearch(p.Alerts, i)
		p.Validations = append(p.Validations, Validation{VM: i, AlertsStopped: !alerting && violatedStreak == 0})
	}

	// An alert more than two sampling intervals after the VM's last one
	// starts a new episode.
	starts := func(i int) bool { return now.Sub(vms[i].lastAlert) > 2*cfg.SamplingIntervalS }
	onset := func(i int) simclock.Time {
		if starts(i) {
			return now
		}
		return vms[i].episodeOnset
	}
	earliest := now
	for _, i := range p.Alerts {
		if starts(i) {
			p.Onsets = append(p.Onsets, i)
		}
		earliest = min(earliest, onset(i))
	}
	// An external workload change hits every component at once; in that
	// case all alerting VMs need relief, not just the earliest one.
	// Similarly, once a real SLO violation persists, onset ordering stops
	// mattering — every alerting VM gets help (the predictive priority
	// only applies while the violation is still preventable).
	all := workloadChange || violatedStreak >= cfg.FilterK
	for _, i := range p.Alerts {
		if all || onset(i).Sub(earliest) <= cfg.SamplingIntervalS {
			p.Targets = append(p.Targets, i)
		}
	}
	return p
}

// busiest picks the reactive fallback's VM: the one with the highest
// CPU sample, or -1 when no VM has a non-negative one.
func busiest(vms []vmState) int {
	best, bestCPU := -1, -1.0
	for i := range vms {
		if u := vms[i].cpu; u > bestCPU {
			best, bestCPU = i, u
		}
	}
	if bestCPU < 0 {
		return -1
	}
	return best
}
