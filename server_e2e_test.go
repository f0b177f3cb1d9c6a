package prepare_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"prepare"
)

// TestServerMatchesLiveRun is the end-to-end service check: a live
// closed-loop simulation's dataset, replayed over the HTTP API into the
// controller service, must reproduce the live run's alert stream and
// actuation audit log byte-for-byte. This works because the service
// advances each tenant's substrate before the controller observes it,
// exactly as the live world does (see internal/server).
func TestServerMatchesLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run outside -short")
	}
	res, err := prepare.Run(prepare.Scenario{
		App:    prepare.SystemS,
		Fault:  prepare.MemoryLeak,
		Scheme: prepare.SchemePREPARE,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alerts) == 0 || len(res.Steps) == 0 {
		t.Fatal("live run produced no alerts/steps; nothing to prove")
	}
	sc := res.Scenario // defaults filled in by Run

	srv, err := prepare.NewServer([]prepare.ServerTenant{{
		ID:  "app",
		VMs: res.VMOrder,
		Control: prepare.ControlConfig{
			SamplingIntervalS:    sc.SamplingIntervalS,
			LookaheadS:           sc.LookaheadS,
			FilterK:              sc.FilterK,
			FilterW:              sc.FilterW,
			TrainAtS:             sc.TrainAtS,
			RetrainIntervalS:     sc.RetrainIntervalS,
			Policy:               sc.Policy,
			Predict:              sc.Predict,
			MonitorSeed:          sc.Seed + 1000,
			DisableValidation:    sc.DisableValidation,
			Detector:             sc.Detector,
			HistoryWindowSamples: sc.HistoryWindowSamples,
		},
	}}, prepare.ServerConfig{QueueDepth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Group the live dataset by sampling instant and POST it in order.
	instants := map[int64][]prepare.IngestSample{}
	for _, vm := range res.VMOrder {
		for _, sm := range res.Dataset[vm] {
			label := "normal"
			switch sm.Label {
			case prepare.LabelAbnormal:
				label = "abnormal"
			case prepare.LabelUnknown:
				label = "unknown"
			}
			instants[sm.Time.Seconds()] = append(instants[sm.Time.Seconds()], prepare.IngestSample{
				VM: string(vm), TimeS: sm.Time.Seconds(), Label: label, Values: sm.Values[:],
			})
		}
	}
	times := make([]int64, 0, len(instants))
	for tm := range instants {
		times = append(times, tm)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, tm := range times {
		body, err := json.Marshal(map[string][]prepare.IngestBatch{
			"batches": {{Tenant: "app", Samples: instants[tm]}},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest at t=%d: status %d", tm, resp.StatusCode)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Failure(); err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}

	// Read the full alert stream back through the cursor API.
	var got []prepare.ServerAlert
	cursor := uint64(0)
	client := httptest.NewServer(srv.Handler()) // handler outlives Close
	defer client.Close()
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/alerts?since=%d&limit=500", client.URL, cursor))
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			Alerts    []prepare.ServerAlert `json:"alerts"`
			Next      uint64                `json:"next"`
			Truncated bool                  `json:"truncated"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if page.Truncated {
			t.Fatal("alert log truncated")
		}
		if len(page.Alerts) == 0 {
			break
		}
		got = append(got, page.Alerts...)
		cursor = page.Next
	}
	want := make([]prepare.ServerAlert, 0, len(res.Alerts))
	for i, a := range res.Alerts {
		want = append(want, prepare.ServerAlert{
			Seq: uint64(i + 1), Tenant: "app", Time: a.Time, VM: a.VM, Score: a.Score, Predicted: a.Predicted,
		})
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Errorf("HTTP-replayed alert stream differs from the live run:\n got %s\nwant %s", gb, wb)
	}

	gotAudit := srv.Audit(0, 0)
	if len(gotAudit) != len(res.Steps) {
		t.Fatalf("audit log has %d actions, live run executed %d", len(gotAudit), len(res.Steps))
	}
	for i, st := range res.Steps {
		g := gotAudit[i]
		if g.Time != st.Time || g.VM != st.VM || g.Kind != st.Kind || g.Resource != st.Resource || g.Detail != st.Detail {
			t.Errorf("audit[%d] = %+v, want %+v", i, g, st)
		}
	}
}
