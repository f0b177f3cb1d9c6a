package probes

import (
	"sync"
	"time"

	"prepare/benchmark/pace"
	"prepare/benchmark/stats"
	"prepare/internal/server"
)

func init() {
	register(Probe{
		Name: "server_paced",
		Metrics: []Metric{
			lower("server.alerts_poll_us_p50", "us"),
			lower("server.gen_busy_frac", "frac"),
			lower("server.gen_late_ms_p99", "ms"),
		},
		Run: runServerPaced,
	})
}

// pacedEvery is the probe's send period: one instant of the capture
// every two milliseconds, well under what the trained pipeline
// sustains.
const pacedEvery = 2 * time.Millisecond

// runServerPaced sends the capture's timed instants open-loop into a
// trained server while a second goroutine reads the alert log through
// its since-cursor every millisecond: what a cursor read costs while
// the publisher is appending, and how busy and how late the generator
// itself runs at a rate the pipeline keeps up with.
func runServerPaced(c *Capture, env Env) ([]float64, error) {
	srv, frames, err := c.trainedServer(server.Config{Shards: 2, AlertLogSize: 256})
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var pollUs []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cursor uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			alerts := srv.Alerts(cursor, 1000)
			pollUs = append(pollUs, float64(time.Since(t0).Nanoseconds())/1e3)
			if n := len(alerts); n > 0 {
				cursor = alerts[n-1].Seq
			}
			time.Sleep(time.Millisecond)
		}
	}()

	instants := len(frames) / CaptureGroups
	if env.Smoke && instants > 20 {
		instants = 20
	}
	pc := pace.New(pacedEvery)
	var busy time.Duration
	var sendErr error
	for k := 0; k < instants && sendErr == nil; k++ {
		pc.Wait(k)
		t0 := time.Now()
		for _, f := range frames[k*CaptureGroups : (k+1)*CaptureGroups] {
			if _, sendErr = sendFrame(srv, f); sendErr != nil {
				break
			}
		}
		busy += time.Since(t0)
	}
	elapsed := time.Since(pc.Start)
	close(stop)
	wg.Wait()
	if err := srv.Close(); sendErr == nil {
		sendErr = err
	}
	if sendErr != nil {
		return nil, sendErr
	}
	return []float64{
		stats.Median(pollUs),
		busy.Seconds() / elapsed.Seconds(),
		stats.Quantile(stats.Sorted(pc.LateMs), 0.99),
	}, nil
}
