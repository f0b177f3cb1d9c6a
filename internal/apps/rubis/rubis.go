// Package rubis simulates a RUBiS-like three-tier online auction
// application: a web server, two application servers and a database
// server, each in its own VM (the paper's Figure 5 topology).
//
// Requests arrive from a client workload generator (the paper replays
// NASA web-trace intensity; we use the synthetic equivalent from
// internal/workload), flow web → app (balanced over the two app servers)
// → database, and each tier contributes utilization-dependent latency.
// The database is the capacity bottleneck, which is where the paper
// injects all three RUBiS faults.
//
// The SLO matches the paper: a violation is marked when the average
// request response time exceeds 200 ms.
package rubis

import (
	"fmt"
	"math"

	"prepare/internal/cloudsim"
	"prepare/internal/simclock"
	"prepare/internal/workload"
)

// SLOResponseMs is the paper's response-time SLO threshold.
const SLOResponseMs = 200.0

// Tier resource shapes and service parameters.
const (
	webCPU   = 100.0
	webMemMB = 512.0
	webWSMB  = 280.0

	appCPU   = 100.0
	appMemMB = 512.0
	appWSMB  = 290.0

	dbCPU   = 140.0
	dbMemMB = 1024.0
	dbWSMB  = 600.0

	// Per-request CPU cost in percentage points per (req/s).
	webCostPerReq = 0.30
	appCostPerReq = 0.80
	dbCostPerReq  = 0.70

	// Uncongested per-request service times (ms).
	webBaseMs = 4.0
	appBaseMs = 10.0
	dbBaseMs  = 20.0

	// Pending-request queue cap per tier before requests are rejected.
	queueCapReqs = 600.0

	respCapMs = 5000.0
	reqKB     = 6.0 // request+response bytes on the wire per request
)

// tier is one stage of the pipeline.
type tier struct {
	vm        cloudsim.VMID
	costPer   float64
	baseMs    float64
	wsMB      float64
	queue     float64
	latencyMs float64
}

// App is the simulated RUBiS deployment bound to a cloudsim cluster.
type App struct {
	cluster *cloudsim.Cluster
	input   workload.Generator
	web     *tier
	app1    *tier
	app2    *tier
	db      *tier

	reqRate    float64
	doneRate   float64
	responseMs float64
}

// Config parameterizes the deployment.
type Config struct {
	// Input is the request rate generator (req/s). Defaults to a steady
	// 90 req/s when nil; experiments pass the NASA-like trace.
	Input workload.Generator
	// HostIDs receive the four VMs round-robin and must already exist.
	HostIDs []cloudsim.HostID
}

// New places the four VMs (web, app1, app2, db) and returns the app.
func New(cluster *cloudsim.Cluster, cfg Config) (*App, error) {
	if cluster == nil {
		return nil, fmt.Errorf("rubis: cluster is required")
	}
	if len(cfg.HostIDs) == 0 {
		return nil, fmt.Errorf("rubis: at least one host is required")
	}
	input := cfg.Input
	if input == nil {
		input = workload.Constant{Value: 90}
	}
	a := &App{
		cluster: cluster,
		input:   input,
		web:     &tier{vm: "vm-web", costPer: webCostPerReq, baseMs: webBaseMs, wsMB: webWSMB},
		app1:    &tier{vm: "vm-app1", costPer: appCostPerReq, baseMs: appBaseMs, wsMB: appWSMB},
		app2:    &tier{vm: "vm-app2", costPer: appCostPerReq, baseMs: appBaseMs, wsMB: appWSMB},
		db:      &tier{vm: "vm-db", costPer: dbCostPerReq, baseMs: dbBaseMs, wsMB: dbWSMB},
	}
	placements := []struct {
		id       cloudsim.VMID
		cpu, mem float64
	}{
		{"vm-web", webCPU, webMemMB},
		{"vm-app1", appCPU, appMemMB},
		{"vm-app2", appCPU, appMemMB},
		{"vm-db", dbCPU, dbMemMB},
	}
	for i, p := range placements {
		hostID := cfg.HostIDs[i%len(cfg.HostIDs)]
		if _, err := cluster.PlaceVM(p.id, hostID, p.cpu, p.mem); err != nil {
			return nil, fmt.Errorf("rubis: place %s: %w", p.id, err)
		}
	}
	return a, nil
}

// VMIDs returns the application's VM IDs in tier order.
func (a *App) VMIDs() []cloudsim.VMID {
	return []cloudsim.VMID{"vm-web", "vm-app1", "vm-app2", "vm-db"}
}

// Tick advances the pipeline by one simulated second and publishes per-VM
// resource usage for the monitor.
func (a *App) Tick(now simclock.Time) {
	a.reqRate = a.input.Rate(now)

	webOut := a.tickTier(a.web, a.reqRate)
	app1Out := a.tickTier(a.app1, webOut/2)
	app2Out := a.tickTier(a.app2, webOut/2)
	dbOut := a.tickTier(a.db, app1Out+app2Out)
	a.doneRate = dbOut

	appLatency := math.Max(a.app1.latencyMs, a.app2.latencyMs)
	a.responseMs = math.Min(a.web.latencyMs+appLatency+a.db.latencyMs, respCapMs)
}

func (a *App) tickTier(t *tier, arrivals float64) float64 {
	vm, err := a.cluster.VM(t.vm)
	if err != nil {
		return arrivals // cannot happen for our own placements
	}
	pressure := vm.MemPressure()
	usable := vm.UsableCPU()

	capacity := usable / (t.costPer * pressure)
	pending := t.queue + arrivals
	done := math.Min(pending, capacity)
	if done < 0 {
		done = 0
	}
	t.queue = pending - done
	if t.queue > queueCapReqs {
		t.queue = queueCapReqs // excess requests are rejected
	}

	util := 0.999
	if capacity > 0 {
		util = math.Min(arrivals/capacity, 0.999)
	}
	queueWaitMs := 0.0
	if capacity > 0 {
		queueWaitMs = t.queue / capacity * 1000
	} else if t.queue > 0 {
		queueWaitMs = 1000
	}
	t.latencyMs = math.Min(t.baseMs*pressure/(1-util)+queueWaitMs, respCapMs)

	hog := math.Min(vm.ExternalCPU, vm.CPUAllocation)
	used := done * t.costPer * pressure
	vm.CPUDemand = pending*t.costPer*pressure + hog
	vm.CPUUsage = math.Min(used+hog, vm.CPUAllocation)
	vm.WorkingSetMB = t.wsMB + t.queue*0.05
	vm.NetInKBps = arrivals * reqKB
	vm.NetOutKBps = done * reqKB
	vm.DiskReadKBps = 30 + done*1.5
	vm.DiskWriteKBs = 15 + done*0.8
	if t == a.db {
		// The database is disk-heavy relative to the stateless tiers.
		vm.DiskReadKBps *= 4
		vm.DiskWriteKBs *= 4
	}
	return done
}

// SLOViolated reports whether the average response time exceeded 200 ms
// last tick (the paper's RUBiS SLO).
func (a *App) SLOViolated() bool {
	return a.reqRate > 0 && a.responseMs > SLOResponseMs
}

// SLOMetric returns the headline trace metric, the average response time
// in ms (Figures 7b/7d/9b/9d plot this).
func (a *App) SLOMetric() float64 { return a.responseMs }
