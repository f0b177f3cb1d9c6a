package placement

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"prepare/internal/telemetry"
)

// HostView is the scorer-facing snapshot of one candidate host.
type HostView struct {
	ID     HostID
	Domain string
	// Capacities and current free headroom (allocation-based, including
	// inbound migration reservations).
	CPUCapPct, MemCapMB   float64
	FreeCPUPct, FreeMemMB float64
	// ForecastCPUPct is the aggregated predicted CPU demand of the
	// host's resident VMs (plus reservations) at the prediction horizon,
	// in percentage points. VMs without a pushed forecast contribute
	// their allocation (a pessimistic upper bound).
	ForecastCPUPct float64
}

// Request asks the engine for a placement target.
type Request struct {
	VM VMID
	// Group is the spreading group (application/tenant); empty opts out
	// of the failure-domain spreading constraint.
	Group string
	// CPUPct / MemMB are the post-placement allocation the target must
	// fit.
	CPUPct float64
	MemMB  float64
	// Source is the host the VM is leaving; it is never a candidate.
	Source HostID
}

// Move is one planned preemption migration: evict VM from its current
// host to clear room, relocating it to To with its current allocation.
type Move struct {
	VM       VMID
	From, To HostID
	CPUPct   float64
	MemMB    float64
}

// Decision is the engine's answer.
type Decision struct {
	Target HostID
	// Score is the winning host's score (scorer value plus any extender
	// bonus), evaluated against the state the decision leaves behind
	// (post-preemption when Preempted is non-empty).
	Score float64
	// Candidates counts the fitting hosts considered.
	Candidates int
	// Preempted lists the evictions that must execute (in order) before
	// the target fits the request. Empty for plain placements.
	Preempted []Move
}

// Scorer ranks candidate hosts; higher is better. Ties break on host ID
// ascending, so any scorer yields deterministic decisions.
type Scorer interface {
	Score(h HostView, req Request) float64
}

// BinPackScorer is the default scorer: it penalizes hosts predicted to
// become the next hotspot (quadratic in forecast utilization after
// placement, worst dimension of CPU-forecast and memory-allocation) and
// breaks the remainder by bin-packing (smaller post-placement slack
// scores higher), so load concentrates on hosts with cool forecasts
// without creating new hot ones.
type BinPackScorer struct {
	// HotspotWeight scales the forecast-utilization penalty (default 1).
	HotspotWeight float64
	// PackWeight scales the leftover-slack penalty (default 0.25).
	PackWeight float64
}

// Score implements Scorer.
func (s BinPackScorer) Score(h HostView, req Request) float64 {
	hw, pw := s.HotspotWeight, s.PackWeight
	if hw == 0 && pw == 0 {
		hw, pw = 1, 0.25
	}
	u := 0.0
	if h.CPUCapPct > 0 {
		u = (h.ForecastCPUPct + req.CPUPct) / h.CPUCapPct
	}
	if h.MemCapMB > 0 {
		if um := (h.MemCapMB - h.FreeMemMB + req.MemMB) / h.MemCapMB; um > u {
			u = um
		}
	}
	slack := 0.0
	if h.CPUCapPct > 0 {
		slack = (h.FreeCPUPct - req.CPUPct) / h.CPUCapPct
	}
	return -(hw*u*u + pw*slack)
}

// Extender is the pluggable scheduling hook, modeled on the Kubernetes
// scheduler-extender pattern (Filter prunes, Prioritize adds bonus
// scores): external policy participates in decisions without the engine
// knowing its rules. Both calls receive candidates in canonical
// (ID-sorted) order.
type Extender interface {
	// Filter returns the subset of hosts that remain eligible.
	Filter(req Request, hosts []HostID) []HostID
	// Prioritize returns per-host score bonuses added to the scorer's
	// value; hosts it does not mention get zero.
	Prioritize(req Request, hosts []HostID) map[HostID]float64
}

// Config tunes the engine.
type Config struct {
	// Scorer ranks candidates (default BinPackScorer{}).
	Scorer Scorer
	// Extender, when non-nil, filters and re-prioritizes candidates.
	Extender Extender
	// MaxGroupPerDomain caps how many VMs of one spreading group a
	// failure domain may host (0 disables the constraint).
	MaxGroupPerDomain int
	// PreemptionDepth bounds the evict-and-cascade recursion: 0
	// disables preemption, 1 allows evicting VMs that fit elsewhere
	// directly, 2 allows those evictions to evict in turn, and so on.
	PreemptionDepth int
	// MaxPreemptions bounds the total evictions in one decision
	// (default 4 when preemption is enabled).
	MaxPreemptions int
	// Telemetry records placement.decision.latency and
	// placement.preemption.moves (nil disables).
	Telemetry *telemetry.Registry
}

// ErrNoFeasibleHost means no host (even after permitted preemption) can
// fit the request.
var ErrNoFeasibleHost = errors.New("placement: no feasible host")

// Engine decides placements over an inventory.
type Engine struct {
	inv *Inventory
	cfg Config

	lat      *telemetry.Histogram
	preempts *telemetry.Counter

	// scratch reused across decisions.
	slotScratch []int32
	idScratch   []HostID
}

// NewEngine builds an engine over the inventory.
func NewEngine(inv *Inventory, cfg Config) (*Engine, error) {
	if inv == nil {
		return nil, errors.New("placement: inventory is required")
	}
	if cfg.Scorer == nil {
		cfg.Scorer = BinPackScorer{}
	}
	if cfg.PreemptionDepth > 0 && cfg.MaxPreemptions == 0 {
		cfg.MaxPreemptions = 4
	}
	return &Engine{
		inv:      inv,
		cfg:      cfg,
		lat:      cfg.Telemetry.Histogram("placement.decision.latency"),
		preempts: cfg.Telemetry.Counter("placement.preemption.moves"),
	}, nil
}

// Inventory returns the engine's inventory.
func (e *Engine) Inventory() *Inventory { return e.inv }

// Decide picks the best target for the request. The inventory is left
// unchanged (preemption planning trial-applies and rolls back); the
// caller actuates the returned moves and updates the mirror.
func (e *Engine) Decide(req Request) (Decision, error) {
	defer e.lat.ObserveSince(time.Now())
	if err := e.inv.Damaged(); err != nil {
		return Decision{}, err
	}
	cpu, mem := milliOf(req.CPUPct), milliOf(req.MemMB)
	exclude := e.slotScratch[:0]
	if slot, ok := e.inv.slotOf[req.Source]; ok {
		exclude = append(exclude, slot)
	}
	e.slotScratch = exclude
	if best, score, n, ok := e.findBest(req, cpu, mem, exclude, true); ok {
		return Decision{Target: e.inv.hosts[best].id, Score: score, Candidates: n}, nil
	}
	if e.cfg.PreemptionDepth > 0 {
		if dec, ok := e.preempt(req, cpu, mem, exclude); ok {
			e.preempts.Add(int64(len(dec.Preempted)))
			return dec, nil
		}
	}
	return Decision{}, fmt.Errorf("%w: vm %q cpu=%.0f mem=%.0f", ErrNoFeasibleHost, req.VM, req.CPUPct, req.MemMB)
}

// findBest runs the deterministic argmax over fitting candidates:
// highest score wins, ties break on host ID ascending. The result is a
// pure function of the inventory state — candidate enumeration order
// cannot change it.
func (e *Engine) findBest(req Request, cpu, mem int64, exclude []int32, extend bool) (bestSlot int32, bestScore float64, candidates int, ok bool) {
	domCap := e.cfg.MaxGroupPerDomain
	var domCount map[string]int
	if domCap > 0 && req.Group != "" {
		domCount = e.inv.groups[req.Group]
	}
	admit := func(slot int32) bool {
		for _, x := range exclude {
			if x == slot {
				return false
			}
		}
		if domCount != nil && domCount[e.inv.hosts[slot].domain] >= domCap {
			return false
		}
		return true
	}

	if extend && e.cfg.Extender != nil {
		return e.findBestExtended(req, cpu, mem, admit)
	}

	bestSlot, ok = -1, false
	e.inv.forEachFitting(cpu, mem, func(slot int32) {
		if !admit(slot) {
			return
		}
		candidates++
		score := e.cfg.Scorer.Score(e.inv.viewOf(slot), req)
		if !ok || score > bestScore || (score == bestScore && e.inv.hosts[slot].id < e.inv.hosts[bestSlot].id) {
			bestSlot, bestScore, ok = slot, score, true
		}
	})
	return bestSlot, bestScore, candidates, ok
}

// findBestExtended is the extender-aware variant: fitting candidates
// are materialized in canonical ID order, filtered, prioritized, then
// scored with the extender bonuses added.
func (e *Engine) findBestExtended(req Request, cpu, mem int64, admit func(int32) bool) (int32, float64, int, bool) {
	ids := e.idScratch[:0]
	e.inv.forEachFitting(cpu, mem, func(slot int32) {
		if admit(slot) {
			ids = append(ids, e.inv.hosts[slot].id)
		}
	})
	e.idScratch = ids
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	kept := e.cfg.Extender.Filter(req, ids)
	bonus := e.cfg.Extender.Prioritize(req, kept)
	var bestSlot int32 = -1
	bestScore, found := 0.0, false
	for _, id := range kept {
		slot, ok := e.inv.slotOf[id]
		if !ok {
			continue
		}
		score := e.cfg.Scorer.Score(e.inv.viewOf(slot), req) + bonus[id]
		if !found || score > bestScore || (score == bestScore && id < e.inv.hosts[bestSlot].id) {
			bestSlot, bestScore, found = slot, score, true
		}
	}
	return bestSlot, bestScore, len(kept), found
}

// trialMove journals one in-planning relocation so preemption planning
// can be rolled back exactly.
type trialMove struct {
	vm   VMID
	from int32
}

// preempt plans an evict-and-cascade placement: find a host that could
// fit the request once some residents are relocated, place those
// residents (recursively preempting up to PreemptionDepth levels, never
// more than MaxPreemptions evictions in total), and return the move
// plan. All trial mutations are rolled back before returning.
func (e *Engine) preempt(req Request, cpu, mem int64, exclude []int32) (Decision, bool) {
	budget := e.cfg.MaxPreemptions
	var journal []trialMove
	target, moves, ok := e.placeEvicting(req, cpu, mem, exclude, e.cfg.PreemptionDepth, &budget, &journal)
	var score float64
	if ok {
		// Score the target against the post-eviction state before
		// rolling the trial back.
		score = e.cfg.Scorer.Score(e.inv.viewOf(target), req)
	}
	for i := len(journal) - 1; i >= 0; i-- {
		t := journal[i]
		rec := e.inv.vms[t.vm]
		e.inv.moveSlot(t.vm, rec, t.from)
	}
	if !ok {
		return Decision{}, false
	}
	return Decision{
		Target:     e.inv.hosts[target].id,
		Score:      score,
		Candidates: len(moves),
		Preempted:  moves,
	}, true
}

// placeEvicting finds a host for (cpu, mem) given the exclusion set,
// evicting residents when depth and budget allow. Victim relocations
// are trial-applied to the inventory (journaled) so later fit checks see
// them; the returned moves are ordered for execution (cascaded
// sub-moves precede the move that depends on them).
func (e *Engine) placeEvicting(req Request, cpu, mem int64, exclude []int32, depth int, budget *int, journal *[]trialMove) (int32, []Move, bool) {
	if best, _, _, ok := e.findBest(req, cpu, mem, exclude, false); ok {
		return best, nil, true
	}
	if depth <= 0 || *budget <= 0 {
		return -1, nil, false
	}
	for _, cand := range e.evictionCandidates(req, cpu, mem, exclude) {
		if moves, ok := e.tryEvictInto(req, cand, cpu, mem, exclude, depth, budget, journal); ok {
			return cand, moves, true
		}
	}
	return -1, nil, false
}

// evictionCandidates lists hosts whose total capacity could fit the
// request (so emptying them enough would work), ordered by free CPU
// descending with ID-ascending tie-breaks, capped at a small
// deterministic prefix — preemption is the rare path and scanning every
// host's resident set would not be.
func (e *Engine) evictionCandidates(req Request, cpu, mem int64, exclude []int32) []int32 {
	const maxCandidates = 8
	domCap := e.cfg.MaxGroupPerDomain
	var domCount map[string]int
	if domCap > 0 && req.Group != "" {
		domCount = e.inv.groups[req.Group]
	}
	var cands []int32
	for slot := range e.inv.hosts {
		h := &e.inv.hosts[slot]
		if !h.live || h.cpuCap < cpu || h.memCap < mem {
			continue
		}
		skip := false
		for _, x := range exclude {
			if x == int32(slot) {
				skip = true
				break
			}
		}
		if skip || (domCount != nil && domCount[h.domain] >= domCap) {
			continue
		}
		cands = append(cands, int32(slot))
	}
	sort.Slice(cands, func(i, j int) bool {
		hi, hj := &e.inv.hosts[cands[i]], &e.inv.hosts[cands[j]]
		if fi, fj := hi.freeCPU(), hj.freeCPU(); fi != fj {
			return fi > fj
		}
		return hi.id < hj.id
	})
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	return cands
}

// tryEvictInto clears room on the candidate host for (cpu, mem):
// victims are chosen greedily (largest CPU allocation first, ID
// ascending on ties) until the deficit is covered, then each victim is
// relocated — recursively evicting at depth-1 when nothing fits
// directly. Trial moves stay journaled on success; on failure the local
// suffix is rolled back so the next candidate starts clean.
func (e *Engine) tryEvictInto(req Request, cand int32, cpu, mem int64, exclude []int32, depth int, budget *int, journal *[]trialMove) ([]Move, bool) {
	h := &e.inv.hosts[cand]
	deficitCPU := cpu - h.freeCPU()
	deficitMem := mem - h.freeMem()
	residents := make([]VMID, 0, len(h.vms))
	for vm := range h.vms {
		residents = append(residents, vm)
	}
	sort.Slice(residents, func(i, j int) bool {
		ri, rj := e.inv.vms[residents[i]], e.inv.vms[residents[j]]
		if ri.cpu != rj.cpu {
			return ri.cpu > rj.cpu
		}
		return residents[i] < residents[j]
	})
	var victims []VMID
	for _, vm := range residents {
		if deficitCPU <= 0 && deficitMem <= 0 {
			break
		}
		rec := e.inv.vms[vm]
		deficitCPU -= rec.cpu
		deficitMem -= rec.mem
		victims = append(victims, vm)
	}
	if deficitCPU > 0 || deficitMem > 0 || len(victims) > *budget {
		return nil, false
	}

	mark := len(*journal)
	budgetMark := *budget
	subExclude := append(append([]int32(nil), exclude...), cand)
	var moves []Move
	okAll := true
	for _, vm := range victims {
		rec := e.inv.vms[vm]
		*budget--
		vreq := Request{VM: vm, Group: rec.group, CPUPct: fromMilli(rec.cpu), MemMB: fromMilli(rec.mem), Source: h.id}
		dst, sub, ok := e.placeEvicting(vreq, rec.cpu, rec.mem, subExclude, depth-1, budget, journal)
		if !ok {
			okAll = false
			break
		}
		moves = append(moves, sub...)
		moves = append(moves, Move{
			VM: vm, From: h.id, To: e.inv.hosts[dst].id,
			CPUPct: fromMilli(rec.cpu), MemMB: fromMilli(rec.mem),
		})
		*journal = append(*journal, trialMove{vm: vm, from: rec.slot})
		e.inv.moveSlot(vm, rec, dst)
	}
	if okAll && h.freeCPU() >= cpu && h.freeMem() >= mem {
		return moves, true
	}
	for len(*journal) > mark {
		t := (*journal)[len(*journal)-1]
		*journal = (*journal)[:len(*journal)-1]
		rec := e.inv.vms[t.vm]
		e.inv.moveSlot(t.vm, rec, t.from)
	}
	*budget = budgetMark
	return nil, false
}
