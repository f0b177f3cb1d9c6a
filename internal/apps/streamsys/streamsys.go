// Package streamsys simulates an IBM System S-like data stream processing
// application: a DAG of processing elements (PEs), each hosted in its own
// VM, with tuple queues, CPU-bound processing, and backpressure.
//
// The simulated application reproduces the paper's tax-calculation
// topology (Figure 4): seven PEs across seven VMs, where PE1 is the
// source, tuples fan out over two branches (PE2→PE4 and PE3→PE5) that
// merge at PE6 — a sink PE that intensively sends processed tuples to the
// network and is the first to be overloaded under the bottleneck fault —
// before the final PE7 stage emits results.
//
// The SLO follows the paper exactly: a violation is marked when
// InputRate/OutputRate < 0.95 (equivalently output/input below 0.95 for
// a lossy system) or the average per-tuple processing time exceeds 20 ms.
package streamsys

import (
	"fmt"
	"math"

	"prepare/internal/cloudsim"
	"prepare/internal/simclock"
	"prepare/internal/workload"
)

// SLO thresholds from the paper.
const (
	// SLORateRatio is the minimum acceptable output/input rate ratio.
	SLORateRatio = 0.95
	// SLOTupleTimeMs is the maximum acceptable average per-tuple
	// processing time in milliseconds.
	SLOTupleTimeMs = 20.0
)

// Default per-VM resource shape for PEs.
const (
	defaultPECPU    = 100.0 // percentage points
	defaultPEMemMB  = 512.0
	defaultPEBaseWS = 260.0 // resident working set in MB
	queueCapKTuples = 60.0  // input queue cap before tuples drop
	tupleKB         = 0.4   // average tuple size on the wire
)

// PE is one processing element of the dataflow graph.
type PE struct {
	Name string
	VM   cloudsim.VMID
	// CostPerKTuple is CPU percentage points consumed per (Ktuple/s) of
	// processing throughput.
	CostPerKTuple float64
	// BaseServiceMs is the uncongested per-tuple processing time.
	BaseServiceMs float64
	// OutFanKB scales network output volume (the sink PE sends
	// intensively).
	OutFanKB float64

	downstream []*PE
	queue      float64 // queued Ktuples
	inRate     float64 // arrivals this tick (Ktuples/s)
	procRate   float64 // processed this tick
	tupleMs    float64 // per-tuple latency contribution this tick
}

// App is the simulated System S application bound to a cloudsim cluster.
type App struct {
	cluster *cloudsim.Cluster
	input   workload.Generator
	pes     map[string]*PE
	order   []string // topological order
	source  *PE
	sink    *PE

	inputRate  float64 // offered load this tick (Ktuples/s)
	outputRate float64 // sink emission this tick
	avgTupleMs float64 // average end-to-end per-tuple time this tick
}

// Config parameterizes the application.
type Config struct {
	// Input is the offered tuple rate in Ktuples/s. Defaults to a steady
	// 25 Ktuples/s if nil.
	Input workload.Generator
	// HostIDs are the hosts to place the seven PE VMs on, round-robin.
	// They must already exist in the cluster.
	HostIDs []cloudsim.HostID
}

// New builds the seven-PE application on the cluster, placing one VM per
// PE round-robin over the given hosts (as in the paper, each PE runs in a
// guest VM).
func New(cluster *cloudsim.Cluster, cfg Config) (*App, error) {
	if cluster == nil {
		return nil, fmt.Errorf("streamsys: cluster is required")
	}
	if len(cfg.HostIDs) == 0 {
		return nil, fmt.Errorf("streamsys: at least one host is required")
	}
	input := cfg.Input
	if input == nil {
		input = workload.Constant{Value: 25}
	}

	mk := func(name string, cost, baseMs, fanKB float64) *PE {
		return &PE{
			Name:          name,
			VM:            cloudsim.VMID("vm-" + name),
			CostPerKTuple: cost,
			BaseServiceMs: baseMs,
			OutFanKB:      fanKB,
		}
	}
	// PE6 is the heavy network sink: highest per-tuple cost, so it is the
	// first PE to saturate when the workload ramps (the bottleneck PE in
	// the paper's experiments).
	pes := []*PE{
		mk("pe1", 2.4, 1.0, tupleKB),
		mk("pe2", 2.6, 1.1, tupleKB),
		mk("pe3", 2.6, 1.1, tupleKB),
		mk("pe4", 2.8, 1.2, tupleKB),
		mk("pe5", 2.8, 1.2, tupleKB),
		mk("pe6", 3.0, 1.6, 4*tupleKB),
		mk("pe7", 2.2, 0.9, tupleKB),
	}
	byName := make(map[string]*PE, len(pes))
	for _, p := range pes {
		byName[p.Name] = p
	}
	link := func(from, to string) { byName[from].downstream = append(byName[from].downstream, byName[to]) }
	link("pe1", "pe2")
	link("pe1", "pe3")
	link("pe2", "pe4")
	link("pe3", "pe5")
	link("pe4", "pe6")
	link("pe5", "pe6")
	link("pe6", "pe7")

	app := &App{
		cluster: cluster,
		input:   input,
		pes:     byName,
		order:   []string{"pe1", "pe2", "pe3", "pe4", "pe5", "pe6", "pe7"},
		source:  byName["pe1"],
		sink:    byName["pe7"],
	}
	for i, p := range pes {
		hostID := cfg.HostIDs[i%len(cfg.HostIDs)]
		if _, err := cluster.PlaceVM(p.VM, hostID, defaultPECPU, defaultPEMemMB); err != nil {
			return nil, fmt.Errorf("streamsys: place %s: %w", p.Name, err)
		}
	}
	return app, nil
}

// VMIDs returns the IDs of the application's VMs in PE order.
func (a *App) VMIDs() []cloudsim.VMID {
	out := make([]cloudsim.VMID, 0, len(a.order))
	for _, name := range a.order {
		out = append(out, a.pes[name].VM)
	}
	return out
}

// Tick advances the dataflow by one simulated second: tuples arrive at
// the source, each PE processes up to its CPU-limited capacity, queues
// absorb overload (dropping beyond capacity), and per-VM resource usage
// is published to the cluster for monitoring.
func (a *App) Tick(now simclock.Time) {
	a.inputRate = a.input.Rate(now)

	// Reset per-tick arrival accounting.
	for _, name := range a.order {
		a.pes[name].inRate = 0
	}
	a.source.inRate = a.inputRate

	for _, name := range a.order {
		p := a.pes[name]
		vm, err := a.cluster.VM(p.VM)
		if err != nil {
			continue // VM lookup cannot fail for our own placements
		}
		a.tickPE(p, vm)
	}
	a.outputRate = a.sink.procRate
	a.avgTupleMs = a.pathLatencyMs()
}

func (a *App) tickPE(p *PE, vm *cloudsim.VM) {
	pressure := vm.MemPressure()
	usable := vm.UsableCPU()

	// CPU-limited processing capacity in Ktuples/s, slowed by paging.
	capacity := usable / (p.CostPerKTuple * pressure)
	pending := p.queue + p.inRate
	processed := math.Min(pending, capacity)
	if processed < 0 {
		processed = 0
	}
	p.queue = pending - processed
	dropped := 0.0
	if p.queue > queueCapKTuples {
		dropped = p.queue - queueCapKTuples
		p.queue = queueCapKTuples
	}
	_ = dropped
	p.procRate = processed

	// Per-tuple latency: base service inflated by paging and queueing
	// delay (queue drain time amortized per tuple).
	util := 0.0
	if capacity > 0 {
		util = math.Min(p.inRate/capacity, 0.999)
	} else {
		util = 0.999
	}
	congestion := 1 / (1 - util)
	queueWaitMs := 0.0
	if capacity > 0 {
		queueWaitMs = p.queue / capacity * 1000
	} else if p.queue > 0 {
		queueWaitMs = 1000
	}
	p.tupleMs = math.Min(p.BaseServiceMs*pressure*congestion+queueWaitMs, 2000)

	// Fan processed tuples downstream: PE1 splits evenly, PE6 merges.
	if n := len(p.downstream); n > 0 {
		share := processed / float64(n)
		for _, d := range p.downstream {
			d.inRate += share
		}
	}

	// Publish resource usage for the monitor.
	demand := (p.queue + p.inRate) * p.CostPerKTuple * pressure
	used := processed * p.CostPerKTuple * pressure
	hog := math.Min(vm.ExternalCPU, vm.CPUAllocation)
	vm.CPUDemand = demand + hog
	vm.CPUUsage = math.Min(used+hog, vm.CPUAllocation)
	vm.WorkingSetMB = defaultPEBaseWS + p.queue*0.5
	vm.NetInKBps = p.inRate * 1000 * tupleKB
	vm.NetOutKBps = processed * 1000 * p.OutFanKB
	vm.DiskReadKBps = 40 + processed*2
	vm.DiskWriteKBs = 20 + processed
}

// pathLatencyMs returns the slower of the two branch latencies
// (source → branch → merge → sink), i.e., the end-to-end average
// per-tuple processing time.
func (a *App) pathLatencyMs() float64 {
	paths := [][]string{
		{"pe1", "pe2", "pe4", "pe6", "pe7"},
		{"pe1", "pe3", "pe5", "pe6", "pe7"},
	}
	worst := 0.0
	for _, path := range paths {
		total := 0.0
		for _, name := range path {
			total += a.pes[name].tupleMs
		}
		if total > worst {
			worst = total
		}
	}
	return worst
}

// SLOViolated reports whether the application violated its SLO last tick,
// per the paper: output/input ratio below 0.95 or per-tuple time above
// 20 ms.
func (a *App) SLOViolated() bool {
	if a.inputRate <= 0 {
		return false
	}
	ratio := a.outputRate / a.inputRate
	return ratio < SLORateRatio || a.avgTupleMs > SLOTupleTimeMs
}

// SLOMetric returns the headline trace metric, the end-to-end throughput
// in Ktuples/s (Figures 7a/7c/9a/9c plot this).
func (a *App) SLOMetric() float64 { return a.outputRate }
