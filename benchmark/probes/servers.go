package probes

import (
	"errors"
	"fmt"
	"time"

	"prepare/benchmark/world"
	"prepare/internal/control"
	"prepare/internal/server"
)

// Shared by the server probes: a server over the capture's four tenant
// groups, and the closed-loop flood that fills it.

// neverTrain is a training instant no probe reaches.
const neverTrain = int64(1) << 40

// RetrySleep is how long a closed loop waits before resending a frame
// the server refused with backpressure.
const RetrySleep = 200 * time.Microsecond

// trainAtS is the second the capture's training prefix ends at.
func (c *Capture) trainAtS() int64 { return SimTime(c.TrainTicks - 1).Seconds() }

// newServerUnstarted builds a server hosting the capture's tenant
// groups under the given control configuration.
func (c *Capture) newServerUnstarted(ctl control.Config, cfg server.Config) (*server.Server, error) {
	tenants := make([]server.TenantConfig, CaptureGroups)
	for g := range tenants {
		tc := ctl
		tc.MonitorSeed = c.Seed + int64(g)
		tenants[g] = server.TenantConfig{ID: world.GroupName(g), VMs: c.GroupVMIDs(g), Control: tc}
	}
	return server.New(tenants, cfg)
}

// newServer is newServerUnstarted, started.
func (c *Capture) newServer(ctl control.Config, cfg server.Config) (*server.Server, error) {
	srv, err := c.newServerUnstarted(ctl, cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// untrained is the control configuration of the ingest-only probes: the
// loop never trains and keeps a bounded history.
func untrained() control.Config {
	return control.Config{TrainAtS: neverTrain, HistoryWindowSamples: 128}
}

// floodFrames returns cycles copies of the whole capture as frames,
// each copy later in simulated time than the one before.
func (c *Capture) floodFrames(cycles int) ([][]byte, error) {
	var all [][]byte
	for cy := 0; cy < cycles; cy++ {
		fs, err := c.Frames(0, c.Ticks, cy*c.Ticks)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// sendFrame ingests one frame, resending it after RetrySleep for as
// long as the server answers with backpressure, and returns how many
// resends it took.
func sendFrame(srv *server.Server, frame []byte) (retries int, err error) {
	for {
		_, err := srv.IngestFrame(frame)
		if err == nil {
			return retries, nil
		}
		if !errors.Is(err, server.ErrBackpressure) {
			return retries, err
		}
		retries++
		time.Sleep(RetrySleep)
	}
}

// floodResult is what one closed-loop flood measured.
type floodResult struct {
	callUs  []float64 // per frame: first attempt to accepted
	retries int
	sendS   float64 // first send to last accepted
	totalS  float64 // first send to drained
	stats   server.Stats
}

// flood sends the frames closed-loop, drains the server by closing it,
// and checks that every sample was applied.
func flood(srv *server.Server, frames [][]byte) (floodResult, error) {
	res := floodResult{callUs: make([]float64, 0, len(frames))}
	start := time.Now()
	for _, f := range frames {
		t0 := time.Now()
		n, err := sendFrame(srv, f)
		if err != nil {
			_ = srv.Close() // the send error is the one to report
			return res, err
		}
		res.retries += n
		res.callUs = append(res.callUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	res.sendS = time.Since(start).Seconds()
	if err := srv.Close(); err != nil {
		return res, err
	}
	res.totalS = time.Since(start).Seconds()
	res.stats = srv.Stats()
	if want := int64(len(frames) * CaptureGroupSize); res.stats.SamplesApplied != want || res.stats.Failure != "" {
		return res, fmt.Errorf("flood applied %d of %d samples (failure %q)", res.stats.SamplesApplied, want, res.stats.Failure)
	}
	return res, nil
}

// WaitTicks blocks until every shard has ticked through second upTo.
func WaitTicks(srv *server.Server, upTo int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := srv.Stats()
		if st.Failure != "" {
			return fmt.Errorf("pipeline failed: %s", st.Failure)
		}
		if st.Ticks >= int64(st.Shards)*upTo {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server ticked %d of %d after 30 s", st.Ticks, int64(st.Shards)*upTo)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// trainedServer returns a started server whose tenants have trained on
// the capture's training prefix, plus the frames of the instants after
// it.
func (c *Capture) trainedServer(cfg server.Config) (*server.Server, [][]byte, error) {
	srv, err := c.newServer(control.Config{TrainAtS: c.trainAtS()}, cfg)
	if err != nil {
		return nil, nil, err
	}
	frames, err := c.Frames(0, c.Ticks, 0)
	if err != nil {
		_ = srv.Close()
		return nil, nil, err
	}
	prefix := c.TrainTicks * CaptureGroups
	for _, f := range frames[:prefix] {
		if _, err := sendFrame(srv, f); err != nil {
			_ = srv.Close()
			return nil, nil, err
		}
	}
	if err := WaitTicks(srv, c.trainAtS()); err != nil {
		_ = srv.Close()
		return nil, nil, err
	}
	return srv, frames[prefix:], nil
}
