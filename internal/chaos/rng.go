package chaos

import "prepare/internal/substrate"

// Decision-site salts: every independent injection roll hashes a
// distinct constant so one fault's schedule never correlates with
// another's. Values are arbitrary but fixed — changing them changes
// every seeded fault schedule.
const (
	opMetricDrop uint64 = iota + 1
	opMetricStale
	opMetricStuck
	opMetricNaN
	opMetricNaNAttr
	opAllocation
	opMigrating
	opScaleCPU
	opScaleMem
	opMigrate
	opMigrateTarget
	opMigStall

	// opInsufficientSalt offsets the spurious-insufficient roll from the
	// transient roll sharing the same call site.
	opInsufficientSalt uint64 = 1 << 16
)

// splitmix64's finalizer: a full-avalanche 64-bit mixer. Counter-mode
// use (hash the key, never keep state) makes every decision a pure
// function of (seed, time, VM, site), so the schedule is independent of
// call order and goroutine interleaving.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashVM is FNV-1a 64 over the VM ID bytes, allocation-free.
func hashVM(id substrate.VMID) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// draw returns the decision word for (seed, now, id, op).
func (s *Substrate) draw(op uint64, id substrate.VMID) uint64 {
	key := uint64(s.plan.Seed)
	key = mix64(key ^ 0x9e3779b97f4a7c15*uint64(s.now.Seconds()))
	key = mix64(key ^ hashVM(id))
	return mix64(key ^ 0xd1b54a32d192ed03*op)
}

// roll reports whether the fault at the decision site fires now for the
// VM. rate <= 0 short-circuits without hashing, so a disabled fault
// costs one comparison.
func (s *Substrate) roll(op uint64, id substrate.VMID, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	// Top 53 bits map uniformly onto [0, 1).
	return float64(s.draw(op, id)>>11)/(1<<53) < rate
}
