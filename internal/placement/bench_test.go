package placement

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// benchFleet builds a deterministic pseudo-random fleet at the given
// scale: hosts spread over 16 failure domains with mixed shapes, each
// hosting vmsPerHost VMs at varied loads, roughly a third of the VMs
// carrying explicit forecasts (the rest default to allocation).
func benchFleet(tb testing.TB, nHosts, vmsPerHost int) *Inventory {
	tb.Helper()
	r := rand.New(rand.NewSource(42))
	inv := NewInventory()
	for i := 0; i < nHosts; i++ {
		err := inv.AddHost(HostState{
			ID:        HostID(fmt.Sprintf("h%05d", i)),
			Domain:    fmt.Sprintf("rack%02d", i%16),
			CPUCapPct: float64(200 + 100*r.Intn(3)),
			MemCapMB:  float64(4096 + 2048*r.Intn(3)),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	vm := 0
	for i := 0; i < nHosts; i++ {
		host := HostID(fmt.Sprintf("h%05d", i))
		for k := 0; k < vmsPerHost; k++ {
			id := VMID(fmt.Sprintf("v%06d", vm))
			cpu := 5 + float64(r.Intn(45))
			if err := inv.Place(id, host, cpu, float64(256+128*r.Intn(6)), fmt.Sprintf("app%d", vm%32)); err != nil {
				tb.Fatal(err)
			}
			if vm%3 == 0 {
				if err := inv.SetForecast(id, float64(r.Intn(120))); err != nil {
					tb.Fatal(err)
				}
			}
			vm++
		}
	}
	return inv
}

// benchRequests pre-generates a rotating set of placement requests with
// varied sizes, groups, and source hosts so the benchmark does not
// measure one lucky bucket.
func benchRequests(nHosts int) []Request {
	r := rand.New(rand.NewSource(7))
	reqs := make([]Request, 256)
	for i := range reqs {
		reqs[i] = Request{
			VM:     VMID(fmt.Sprintf("inc%03d", i)),
			Group:  fmt.Sprintf("app%d", i%32),
			CPUPct: 20 + float64(r.Intn(100)),
			MemMB:  float64(256 + 128*r.Intn(8)),
			Source: HostID(fmt.Sprintf("h%05d", r.Intn(nHosts))),
		}
	}
	return reqs
}

// BenchmarkPlacementDecision pins the tentpole latency target: one
// placement decision over an indexed fleet of 1k hosts / 5k VMs and
// 10k hosts / 50k VMs (the ISSUE's scale floor) must stay
// sub-millisecond. TestDecideAllocs pins its allocation count.
func BenchmarkPlacementDecision(b *testing.B) {
	for _, tc := range []struct{ hosts, vmsPer int }{
		{1000, 5},
		{10000, 5},
	} {
		name := fmt.Sprintf("hosts=%d,vms=%d", tc.hosts, tc.hosts*tc.vmsPer)
		b.Run(name, func(b *testing.B) {
			inv := benchFleet(b, tc.hosts, tc.vmsPer)
			eng, err := NewEngine(inv, Config{MaxGroupPerDomain: 8, PreemptionDepth: 2})
			if err != nil {
				b.Fatal(err)
			}
			reqs := benchRequests(tc.hosts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Decide(reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
		})
	}
}

// TestDecideAllocs pins one placement decision over the 1k-host /
// 5k-VM benchmark fleet at zero allocations.
func TestDecideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	eng, err := NewEngine(benchFleet(t, 1000, 5), Config{MaxGroupPerDomain: 8, PreemptionDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := benchRequests(1000)
	i := 0
	allocs := testing.AllocsPerRun(len(reqs), func() {
		if _, err := eng.Decide(reqs[i%len(reqs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Decide allocates %v/op, want 0", allocs)
	}
}

// TestPlacementDecisionLatencyBudget enforces the acceptance criterion
// directly in the test suite: at 10k hosts / 50k VMs the p50 decision
// latency must be under one millisecond (p99 under ten, as headroom
// against CI noise).
func TestPlacementDecisionLatencyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fleet in -short mode")
	}
	if raceEnabled {
		t.Skip("latency budget is a wall-clock gate; the race detector's overhead makes it meaningless")
	}
	inv := benchFleet(t, 10000, 5)
	eng, err := NewEngine(inv, Config{MaxGroupPerDomain: 8, PreemptionDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := benchRequests(10000)
	const rounds = 501
	lats := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := eng.Decide(reqs[i%len(reqs)]); err != nil {
			t.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, p99 := lats[len(lats)/2], lats[len(lats)*99/100]
	t.Logf("decision latency over %d hosts / %d VMs: p50=%v p99=%v", inv.NumHosts(), inv.NumVMs(), p50, p99)
	if p50 >= time.Millisecond {
		t.Errorf("p50 decision latency %v exceeds the 1ms budget", p50)
	}
	if p99 >= 10*time.Millisecond {
		t.Errorf("p99 decision latency %v exceeds the 10ms headroom budget", p99)
	}
}
