// Package placement implements PREPARE's predictive placement engine:
// migration target selection that scores candidate hosts by *forecast*
// future load (per-host aggregates of the per-VM Markov value
// predictions) instead of instantaneous utilization — the paper flags
// "migrate to the currently least-loaded host" as the weak link between
// accurate prediction and effective prevention, because the least-loaded
// host now is often the next hotspot.
//
// Nothing in this module calls it: migration keeps the substrate's own
// target choice, which on the paper's topologies no scorer can improve.
// The package remains because the standing benchmark (the separate
// module under benchmark/) times it.
//
// The package has two halves:
//
//   - Inventory: an indexed free-capacity mirror of the fleet. Host
//     state (capacity, allocations, reservations, per-VM forecasts,
//     failure domains) is kept in fixed-point milli-units so incremental
//     updates are exact — no float residue — which makes decisions
//     independent of the mutation history that produced a state. Two
//     bucketed per-resource indexes (free CPU, free memory) prune the
//     candidate scan so one decision over thousands of hosts stays
//     sub-millisecond.
//   - Engine: the decision procedure — Scorer interface with a default
//     forecast-aware bin-packing scorer, failure-domain spreading, a
//     k8s-style extender hook, and bounded evict-and-cascade preemption
//     with deterministic tie-breaking.
//
// The inventory performs no capacity admission control: it is a
// bookkeeping mirror of a substrate that already validated its own
// actuations, so free capacity may legitimately go negative under
// rounding or races and the engine's fit check simply excludes such
// hosts. Structural errors (unknown IDs, duplicates) mark the inventory
// damaged; a damaged inventory refuses decisions.
package placement

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"prepare/internal/substrate"
)

// HostID identifies a physical host (neutral substrate identifier).
type HostID = substrate.HostID

// VMID identifies a virtual machine (neutral substrate identifier).
type VMID = substrate.VMID

// HostState describes one host for Inventory.AddHost.
type HostState struct {
	ID HostID
	// Domain is the host's failure domain (rack, chassis, zone).
	// Empty means the host is its own domain.
	Domain    string
	CPUCapPct float64
	MemCapMB  float64
}

// milliOf converts a float resource quantity to exact fixed-point
// milli-units. All inventory accounting is integral so incremental
// updates leave no residue: the state after any op sequence depends only
// on the final logical fleet, never on the order the ops arrived in.
func milliOf(v float64) int64 { return int64(math.Round(v * 1000)) }

func fromMilli(x int64) float64 { return float64(x) / 1000 }

const numBuckets = 64

// bucketIndex maintains hosts bucketed by one free-resource dimension.
// Bucket b holds hosts with free capacity in [b·width, (b+1)·width); a
// request for at least c only scans buckets ≥ c/width. Buckets keep
// slots sorted ascending so enumeration order is canonical regardless of
// the insertion history.
type bucketIndex struct {
	width    int64
	maxCap   int64
	buckets  [numBuckets][]int32
	bucketOf []int16 // per host slot; -1 when absent
}

func (ix *bucketIndex) bucket(free int64) int16 {
	if free <= 0 || ix.width == 0 {
		return 0
	}
	b := free / ix.width
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return int16(b)
}

func (ix *bucketIndex) grow(slot int32) {
	for int(slot) >= len(ix.bucketOf) {
		ix.bucketOf = append(ix.bucketOf, -1)
	}
}

func (ix *bucketIndex) insert(slot int32, free int64) {
	ix.grow(slot)
	b := ix.bucket(free)
	ix.bucketOf[slot] = b
	lst := ix.buckets[b]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= slot })
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = slot
	ix.buckets[b] = lst
}

func (ix *bucketIndex) remove(slot int32) {
	b := ix.bucketOf[slot]
	if b < 0 {
		return
	}
	lst := ix.buckets[b]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= slot })
	if i < len(lst) && lst[i] == slot {
		ix.buckets[b] = append(lst[:i], lst[i+1:]...)
	}
	ix.bucketOf[slot] = -1
}

func (ix *bucketIndex) update(slot int32, free int64) {
	if b := ix.bucket(free); ix.bucketOf[slot] != b {
		ix.remove(slot)
		ix.insert(slot, free)
	}
}

// setMaxCap widens the bucket span when a host larger than any seen
// before joins, rebucketing every indexed slot (rare: fleet growth with
// a new largest host shape).
func (ix *bucketIndex) setMaxCap(cap int64, freeOf func(slot int32) int64) {
	if cap <= ix.maxCap {
		return
	}
	ix.maxCap = cap
	ix.width = cap/numBuckets + 1
	var indexed []int32
	for b := range ix.buckets {
		indexed = append(indexed, ix.buckets[b]...)
		ix.buckets[b] = nil
	}
	for _, slot := range indexed {
		ix.bucketOf[slot] = -1
		ix.insert(slot, freeOf(slot))
	}
}

// countFrom returns an upper bound on the number of hosts with at least
// free capacity c (used to pick the more selective scan dimension).
func (ix *bucketIndex) countFrom(c int64) int {
	n := 0
	for b := int(ix.bucket(c)); b < numBuckets; b++ {
		n += len(ix.buckets[b])
	}
	return n
}

type hostRec struct {
	id     HostID
	domain string
	live   bool

	cpuCap, memCap     int64
	allocCPU, allocMem int64
	// fcCPU aggregates the forecast CPU demand of resident VMs and
	// inbound reservations, maintained incrementally as VMs move and
	// forecasts are pushed.
	fcCPU int64

	vms map[VMID]struct{}
}

func (h *hostRec) freeCPU() int64 { return h.cpuCap - h.allocCPU }
func (h *hostRec) freeMem() int64 { return h.memCap - h.allocMem }

type vmRec struct {
	slot     int32
	cpu, mem int64
	// fc is the VM's forecast CPU demand in milli-percentage-points. It
	// defaults to the allocation (a pessimistic upper bound) until a
	// prediction is pushed; explicit forecasts survive later allocation
	// changes.
	fc         int64
	fcExplicit bool
	group      string
}

type resRec struct {
	slot     int32
	cpu, mem int64
}

// Inventory is the indexed free-capacity view of a fleet. It is not
// safe for concurrent use.
type Inventory struct {
	hosts     []hostRec
	slotOf    map[HostID]int32
	freeSlots []int32
	vms       map[VMID]*vmRec
	res       map[string]resRec
	// groups counts VMs per (group, domain) for the spreading
	// constraint: groups[group][domain] = resident count.
	groups map[string]map[string]int

	cpuIdx, memIdx bucketIndex

	liveHosts int
	damaged   error
}

// NewInventory returns an empty inventory.
func NewInventory() *Inventory {
	return &Inventory{
		slotOf: make(map[HostID]int32),
		vms:    make(map[VMID]*vmRec),
		res:    make(map[string]resRec),
		groups: make(map[string]map[string]int),
	}
}

// Errors reported by inventory operations.
var (
	// ErrDamaged means a structural inconsistency was recorded (see
	// MarkDamaged); the engine refuses decisions over a damaged mirror.
	ErrDamaged = errors.New("placement: inventory damaged")
)

// MarkDamaged records a structural inconsistency between the inventory
// mirror and the substrate it tracks. Once damaged, Decide fails until
// the mirror is rebuilt.
func (inv *Inventory) MarkDamaged(err error) {
	if inv.damaged == nil && err != nil {
		inv.damaged = fmt.Errorf("%w: %v", ErrDamaged, err)
	}
}

// Damaged returns the recorded inconsistency, nil when healthy.
func (inv *Inventory) Damaged() error { return inv.damaged }

// AddHost registers a host.
func (inv *Inventory) AddHost(h HostState) error {
	if _, ok := inv.slotOf[h.ID]; ok {
		return fmt.Errorf("placement: duplicate host %q", h.ID)
	}
	if h.CPUCapPct <= 0 || h.MemCapMB <= 0 {
		return fmt.Errorf("placement: host %q capacities must be positive", h.ID)
	}
	domain := h.Domain
	if domain == "" {
		domain = string(h.ID)
	}
	rec := hostRec{
		id: h.ID, domain: domain, live: true,
		cpuCap: milliOf(h.CPUCapPct), memCap: milliOf(h.MemCapMB),
		vms: make(map[VMID]struct{}),
	}
	var slot int32
	if n := len(inv.freeSlots); n > 0 {
		slot = inv.freeSlots[n-1]
		inv.freeSlots = inv.freeSlots[:n-1]
		inv.hosts[slot] = rec
	} else {
		slot = int32(len(inv.hosts))
		inv.hosts = append(inv.hosts, rec)
	}
	inv.slotOf[h.ID] = slot
	inv.liveHosts++
	inv.cpuIdx.setMaxCap(rec.cpuCap, inv.freeCPUOf)
	inv.memIdx.setMaxCap(rec.memCap, inv.freeMemOf)
	inv.cpuIdx.grow(slot)
	inv.memIdx.grow(slot)
	inv.cpuIdx.bucketOf[slot] = -1
	inv.memIdx.bucketOf[slot] = -1
	inv.cpuIdx.insert(slot, rec.freeCPU())
	inv.memIdx.insert(slot, rec.freeMem())
	return nil
}

func (inv *Inventory) freeCPUOf(slot int32) int64 { return inv.hosts[slot].freeCPU() }
func (inv *Inventory) freeMemOf(slot int32) int64 { return inv.hosts[slot].freeMem() }

// RemoveHost deregisters an empty host (no resident VMs, no inbound
// reservations).
func (inv *Inventory) RemoveHost(id HostID) error {
	slot, ok := inv.slotOf[id]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchHost, id)
	}
	h := &inv.hosts[slot]
	if len(h.vms) > 0 {
		return fmt.Errorf("placement: host %q still hosts %d VMs", id, len(h.vms))
	}
	for _, r := range inv.res {
		if r.slot == slot {
			return fmt.Errorf("placement: host %q has an inbound reservation", id)
		}
	}
	inv.cpuIdx.remove(slot)
	inv.memIdx.remove(slot)
	h.live = false
	delete(inv.slotOf, id)
	inv.freeSlots = append(inv.freeSlots, slot)
	inv.liveHosts--
	return nil
}

// ResizeHost changes a host's capacities (e.g. a hardware upgrade).
func (inv *Inventory) ResizeHost(id HostID, cpuCapPct, memCapMB float64) error {
	slot, ok := inv.slotOf[id]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchHost, id)
	}
	if cpuCapPct <= 0 || memCapMB <= 0 {
		return fmt.Errorf("placement: host %q capacities must be positive", id)
	}
	h := &inv.hosts[slot]
	h.cpuCap = milliOf(cpuCapPct)
	h.memCap = milliOf(memCapMB)
	inv.cpuIdx.setMaxCap(h.cpuCap, inv.freeCPUOf)
	inv.memIdx.setMaxCap(h.memCap, inv.freeMemOf)
	inv.reindex(slot)
	return nil
}

func (inv *Inventory) reindex(slot int32) {
	h := &inv.hosts[slot]
	inv.cpuIdx.update(slot, h.freeCPU())
	inv.memIdx.update(slot, h.freeMem())
}

// Place records a VM on a host with the given allocation and spreading
// group (empty group opts out of spreading).
func (inv *Inventory) Place(vm VMID, host HostID, cpuPct, memMB float64, group string) error {
	if _, ok := inv.vms[vm]; ok {
		return fmt.Errorf("placement: duplicate VM %q", vm)
	}
	slot, ok := inv.slotOf[host]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchHost, host)
	}
	if cpuPct < 0 || memMB < 0 {
		return fmt.Errorf("placement: VM %q allocations must be non-negative", vm)
	}
	rec := &vmRec{slot: slot, cpu: milliOf(cpuPct), mem: milliOf(memMB), group: group}
	rec.fc = rec.cpu
	inv.vms[vm] = rec
	h := &inv.hosts[slot]
	h.vms[vm] = struct{}{}
	h.allocCPU += rec.cpu
	h.allocMem += rec.mem
	h.fcCPU += rec.fc
	inv.groupAdd(group, h.domain, 1)
	inv.reindex(slot)
	return nil
}

// Remove deregisters a VM.
func (inv *Inventory) Remove(vm VMID) error {
	rec, ok := inv.vms[vm]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchVM, vm)
	}
	h := &inv.hosts[rec.slot]
	delete(h.vms, vm)
	h.allocCPU -= rec.cpu
	h.allocMem -= rec.mem
	h.fcCPU -= rec.fc
	inv.groupAdd(rec.group, h.domain, -1)
	delete(inv.vms, vm)
	inv.reindex(rec.slot)
	return nil
}

// SetAlloc updates a VM's allocation in place (elastic scaling). A VM
// without an explicit forecast keeps tracking its allocation.
func (inv *Inventory) SetAlloc(vm VMID, cpuPct, memMB float64) error {
	rec, ok := inv.vms[vm]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchVM, vm)
	}
	if cpuPct < 0 || memMB < 0 {
		return fmt.Errorf("placement: VM %q allocations must be non-negative", vm)
	}
	cpu, mem := milliOf(cpuPct), milliOf(memMB)
	h := &inv.hosts[rec.slot]
	h.allocCPU += cpu - rec.cpu
	h.allocMem += mem - rec.mem
	rec.cpu, rec.mem = cpu, mem
	if !rec.fcExplicit {
		h.fcCPU += cpu - rec.fc
		rec.fc = cpu
	}
	inv.reindex(rec.slot)
	return nil
}

// SetForecast pushes a VM's predicted CPU demand (percentage points at
// the prediction horizon); the host aggregate updates incrementally.
func (inv *Inventory) SetForecast(vm VMID, cpuPct float64) error {
	rec, ok := inv.vms[vm]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchVM, vm)
	}
	fc := milliOf(cpuPct)
	if fc < 0 {
		fc = 0
	}
	inv.hosts[rec.slot].fcCPU += fc - rec.fc
	rec.fc = fc
	rec.fcExplicit = true
	return nil
}

// Move relocates a VM to another host, carrying its allocation,
// forecast, and group membership.
func (inv *Inventory) Move(vm VMID, to HostID) error {
	rec, ok := inv.vms[vm]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchVM, vm)
	}
	dstSlot, ok := inv.slotOf[to]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchHost, to)
	}
	if dstSlot == rec.slot {
		return nil
	}
	inv.moveSlot(vm, rec, dstSlot)
	return nil
}

func (inv *Inventory) moveSlot(vm VMID, rec *vmRec, dstSlot int32) {
	src := &inv.hosts[rec.slot]
	dst := &inv.hosts[dstSlot]
	delete(src.vms, vm)
	src.allocCPU -= rec.cpu
	src.allocMem -= rec.mem
	src.fcCPU -= rec.fc
	inv.groupAdd(rec.group, src.domain, -1)
	srcSlot := rec.slot
	rec.slot = dstSlot
	dst.vms[vm] = struct{}{}
	dst.allocCPU += rec.cpu
	dst.allocMem += rec.mem
	dst.fcCPU += rec.fc
	inv.groupAdd(rec.group, dst.domain, 1)
	inv.reindex(srcSlot)
	inv.reindex(dstSlot)
}

// Reserve earmarks capacity on a host for an inbound migration. The
// reservation contributes to both allocation and forecast aggregates
// until released.
func (inv *Inventory) Reserve(key string, host HostID, cpuPct, memMB float64) error {
	if _, ok := inv.res[key]; ok {
		return fmt.Errorf("placement: duplicate reservation %q", key)
	}
	slot, ok := inv.slotOf[host]
	if !ok {
		return fmt.Errorf("placement: %w: %q", substrate.ErrNoSuchHost, host)
	}
	r := resRec{slot: slot, cpu: milliOf(cpuPct), mem: milliOf(memMB)}
	inv.res[key] = r
	h := &inv.hosts[slot]
	h.allocCPU += r.cpu
	h.allocMem += r.mem
	h.fcCPU += r.cpu
	inv.reindex(slot)
	return nil
}

// Release frees a reservation.
func (inv *Inventory) Release(key string) error {
	r, ok := inv.res[key]
	if !ok {
		return fmt.Errorf("placement: unknown reservation %q", key)
	}
	delete(inv.res, key)
	h := &inv.hosts[r.slot]
	h.allocCPU -= r.cpu
	h.allocMem -= r.mem
	h.fcCPU -= r.cpu
	inv.reindex(r.slot)
	return nil
}

func (inv *Inventory) groupAdd(group, domain string, delta int) {
	if group == "" {
		return
	}
	doms := inv.groups[group]
	if doms == nil {
		doms = make(map[string]int)
		inv.groups[group] = doms
	}
	doms[domain] += delta
	if doms[domain] <= 0 {
		delete(doms, domain)
	}
}

// NumHosts returns the number of live hosts.
func (inv *Inventory) NumHosts() int { return inv.liveHosts }

// NumVMs returns the number of tracked VMs.
func (inv *Inventory) NumVMs() int { return len(inv.vms) }

// HostIDs returns the live host IDs sorted.
func (inv *Inventory) HostIDs() []HostID {
	out := make([]HostID, 0, inv.liveHosts)
	for id := range inv.slotOf {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Free returns a host's free CPU (pct) and memory (MB); ok=false for
// unknown hosts. Free capacity can be negative on an over-committed
// mirror.
func (inv *Inventory) Free(id HostID) (cpuPct, memMB float64, ok bool) {
	slot, found := inv.slotOf[id]
	if !found {
		return 0, 0, false
	}
	h := &inv.hosts[slot]
	return fromMilli(h.freeCPU()), fromMilli(h.freeMem()), true
}

// HostOf returns the host currently running the VM.
func (inv *Inventory) HostOf(vm VMID) (HostID, bool) {
	rec, ok := inv.vms[vm]
	if !ok {
		return "", false
	}
	return inv.hosts[rec.slot].id, true
}

// VMAlloc returns a VM's recorded allocation.
func (inv *Inventory) VMAlloc(vm VMID) (cpuPct, memMB float64, ok bool) {
	rec, found := inv.vms[vm]
	if !found {
		return 0, 0, false
	}
	return fromMilli(rec.cpu), fromMilli(rec.mem), true
}

// VMsOn returns the VMs resident on a host, sorted by ID.
func (inv *Inventory) VMsOn(id HostID) []VMID {
	slot, ok := inv.slotOf[id]
	if !ok {
		return nil
	}
	h := &inv.hosts[slot]
	out := make([]VMID, 0, len(h.vms))
	for vm := range h.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// View returns the scorer-facing snapshot of a host.
func (inv *Inventory) View(id HostID) (HostView, bool) {
	slot, ok := inv.slotOf[id]
	if !ok {
		return HostView{}, false
	}
	return inv.viewOf(slot), true
}

func (inv *Inventory) viewOf(slot int32) HostView {
	h := &inv.hosts[slot]
	return HostView{
		ID:             h.id,
		Domain:         h.domain,
		CPUCapPct:      fromMilli(h.cpuCap),
		MemCapMB:       fromMilli(h.memCap),
		FreeCPUPct:     fromMilli(h.freeCPU()),
		FreeMemMB:      fromMilli(h.freeMem()),
		ForecastCPUPct: fromMilli(h.fcCPU),
	}
}

// forEachFitting yields the slot of every live host with free capacity
// for (cpu, mem), scanning whichever per-resource index prunes harder.
// Yield order is canonical (bucket, then slot) and the caller's argmax
// uses exact tie-breaking, so enumeration order never shows in results.
func (inv *Inventory) forEachFitting(cpu, mem int64, fn func(slot int32)) {
	ix := &inv.cpuIdx
	lo := int(ix.bucket(cpu))
	if inv.memIdx.countFrom(mem) < ix.countFrom(cpu) {
		ix = &inv.memIdx
		lo = int(ix.bucket(mem))
	}
	for b := lo; b < numBuckets; b++ {
		for _, slot := range ix.buckets[b] {
			h := &inv.hosts[slot]
			if h.live && h.freeCPU() >= cpu && h.freeMem() >= mem {
				fn(slot)
			}
		}
	}
}
