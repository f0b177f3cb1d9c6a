package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"prepare"
)

// serveTenantID names the serve-mode tenants: t000, t001, ...
func serveTenantID(i int) string { return fmt.Sprintf("t%03d", i) }

// runServe starts the controller service on opts.addr with a synthetic
// topology of -tenants tenants × -vms VMs each (IDs t000..tNNN, VMs
// t000-vm0..), and serves until SIGINT/SIGTERM, then drains the
// pipeline. Chaos and retraining flags apply per tenant.
func runServe(opts options) error {
	tenants := make([]prepare.ServerTenant, 0, opts.tenants)
	for i := 0; i < opts.tenants; i++ {
		id := serveTenantID(i)
		vms := make([]prepare.VMID, 0, opts.vms)
		for v := 0; v < opts.vms; v++ {
			vms = append(vms, prepare.VMID(fmt.Sprintf("%s-vm%d", id, v)))
		}
		cc := prepare.ControlConfig{
			TrainAtS:             600,
			RetrainIntervalS:     opts.retrainS,
			HistoryWindowSamples: opts.historyWindow,
			MonitorSeed:          opts.seed + int64(i)*1009,
		}
		plan := opts.chaosPlan()
		if plan.Enabled() {
			plan.Seed += int64(i) // distinct schedule per tenant
		}
		tenants = append(tenants, prepare.ServerTenant{ID: id, VMs: vms, Control: cc, Chaos: plan})
	}
	cfg := prepare.ServerConfig{Shards: opts.shards}
	if opts.telemetry || opts.telemetryAddr != "" {
		cfg.Telemetry = prepare.TelemetryRegistry()
	}
	srv, err := prepare.NewServer(tenants, cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "preparesim: serving %d tenants × %d VMs on %s (POST /v1/samples JSON or binary columnar, POST /v1/stream, GET /v1/alerts, /healthz)\n",
		opts.tenants, opts.vms, opts.addr)
	return prepare.RunServer(ctx, srv, opts.addr)
}
