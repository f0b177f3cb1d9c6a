package prepare

import (
	"context"
	"errors"
	"net/http"
	"time"

	"prepare/internal/server"
)

// Controller service: the sharded engine behind a staged asynchronous
// pipeline (ingest → predict → diagnose → actuate → publish) with an
// HTTP/JSON API, bounded queues with explicit backpressure, and warm
// failover via model-snapshot checkpoints. See DESIGN.md §10.
type (
	// Server is the controller service.
	Server = server.Server
	// ServerConfig tunes the pipeline (shards, queue bounds, batch
	// limits, checkpoint cadence, telemetry).
	ServerConfig = server.Config
	// ServerTenant declares one hosted tenant: its VM set, control
	// configuration, and optional chaos plan.
	ServerTenant = server.TenantConfig
	// IngestBatch is one tenant's slice of an ingest request.
	IngestBatch = server.Batch
	// IngestSample is one ingested VM metric sample.
	IngestSample = server.SampleIn
	// IngestResult reports accepted and backpressure-rejected counts.
	IngestResult = server.IngestResult
	// ServerAlert is one published alert with its cursor sequence.
	ServerAlert = server.Alert
	// ServerAuditEntry is one published actuation with its sequence.
	ServerAuditEntry = server.AuditEntry
	// ServerStats is a point-in-time snapshot of pipeline counters.
	ServerStats = server.Stats
)

// Controller-service sentinel errors.
var (
	// ErrBackpressure: a shard queue was full; retry after
	// IngestResult.RetryAfterS.
	ErrBackpressure = server.ErrBackpressure
	// ErrServerNotRunning: the server is not accepting work.
	ErrServerNotRunning = server.ErrNotRunning
)

// NewServer builds a controller service hosting the given tenants. Call
// Start to run the pipeline, Handler for the HTTP API, and Close for a
// zero-loss drain.
func NewServer(tenants []ServerTenant, cfg ServerConfig) (*Server, error) {
	return server.New(tenants, cfg)
}

// RunServer starts the pipeline and serves its HTTP API on addr until
// ctx is cancelled, then shuts the listener down and drains the
// pipeline. A server restored from a checkpoint can be passed directly.
func RunServer(ctx context.Context, srv *Server, addr string) error {
	if err := srv.Start(); err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutCtx)
		return srv.Close()
	case err := <-errCh:
		_ = srv.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
