package loadgen

import (
	"encoding/json"
	"os"
	"testing"
)

// TestShortProfileVerifiedZeroLoss is the in-repo version of the CI SLO
// gate: the short profile must lose nothing below the backpressure
// threshold and match the synchronous controller byte-for-byte.
func TestShortProfileVerifiedZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon load run outside -short")
	}
	cfg, err := ProfileConfig("short")
	if err != nil {
		t.Fatal(err)
	}
	// Unpaced in-process: the wall-clock pacing is CI-timing noise the
	// equivalence check doesn't need.
	cfg.Rate = 0
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SamplesRejected != 0 {
		t.Errorf("rejected %d samples below the backpressure threshold", rep.SamplesRejected)
	}
	if rep.SamplesApplied != rep.SamplesSent {
		t.Errorf("sent %d but applied %d", rep.SamplesSent, rep.SamplesApplied)
	}
	if !rep.Verified {
		t.Errorf("alert stream not verified: %s", rep.VerifyError)
	}
	if rep.AlertsPublished == 0 {
		t.Error("scenario produced no alerts; the gate would be vacuous")
	}
	var decoded Report
	if err := json.Unmarshal(rep.JSON(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
}

// TestIngestProfileThroughputFloor measures the pure ingest path
// (prediction disabled). The wall-clock assertion only runs when
// PREPARE_LOADGEN_SLO=1 — CI's serve-slo job sets it; laptops and
// heavily shared runners skip the timing-sensitive part.
func TestIngestProfileThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("load run outside -short")
	}
	cfg, err := ProfileConfig("ingest")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SamplesRejected != 0 {
		t.Errorf("rejected %d samples below the backpressure threshold", rep.SamplesRejected)
	}
	if rep.SamplesApplied != rep.SamplesSent {
		t.Errorf("sent %d but applied %d", rep.SamplesSent, rep.SamplesApplied)
	}
	if rep.AlertsPublished != 0 {
		t.Errorf("ingest profile trained and alerted (%d); TrainAtS gate broken", rep.AlertsPublished)
	}
	if os.Getenv("PREPARE_LOADGEN_SLO") != "1" {
		t.Logf("throughput %.0f samples/sec (floor not asserted without PREPARE_LOADGEN_SLO=1)", rep.ThroughputSPS)
		return
	}
	if rep.ThroughputSPS < 100000 {
		t.Errorf("ingest throughput %.0f samples/sec, want >= 100000", rep.ThroughputSPS)
	}
}

func TestProfileConfigUnknown(t *testing.T) {
	if _, err := ProfileConfig("bogus"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, name := range Profiles() {
		if _, err := ProfileConfig(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Run(Config{Wire: "telepathy"}); err == nil {
		t.Fatal("unknown wire accepted")
	}
}

// TestWireTransportsEquivalent runs the same small verified scenario
// over every transport and requires each run to (a) pass the
// synchronous-oracle byte check and (b) write byte-identical canonical
// alert files — the in-repo version of CI's transport byte-diff.
func TestWireTransportsEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-transport load run outside -short")
	}
	dir := t.TempDir()
	files := make(map[string][]byte)
	for _, w := range Wires() {
		cfg := Config{Profile: "wire-" + w, Tenants: 2, VMsPerTenant: 2, HorizonS: 1500,
			TrainAtS: 600, Seed: 3, ChaosRate: 0.02, Verify: true,
			Shards: 2, QueueDepth: 2048, Wire: w,
			AlertsOut: dir + "/" + w + ".json"}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Verified {
			t.Fatalf("%s: not verified: %s", w, rep.VerifyError)
		}
		if rep.SamplesRejected != 0 || rep.SamplesApplied != rep.SamplesSent {
			t.Fatalf("%s: sent=%d applied=%d rejected=%d", w, rep.SamplesSent, rep.SamplesApplied, rep.SamplesRejected)
		}
		if rep.AlertsPublished == 0 {
			t.Fatalf("%s: no alerts; equivalence would be vacuous", w)
		}
		if rep.P99EncodeS == 0 || rep.P99SendS == 0 {
			t.Errorf("%s: missing stage breakdown: %+v", w, rep)
		}
		if files[w], err = os.ReadFile(cfg.AlertsOut); err != nil {
			t.Fatal(err)
		}
	}
	want := files["binary"]
	for w, got := range files {
		if string(got) != string(want) {
			t.Errorf("%s: alert file diverges from the binary transport (%d vs %d bytes)", w, len(got), len(want))
		}
	}
}

// TestPacingBelowRate: with a rate far above what the run can emit, the
// pacer must not reject or stall.
func TestPacingBelowRate(t *testing.T) {
	cfg := Config{Profile: "tiny", Tenants: 1, VMsPerTenant: 1, HorizonS: 50,
		TrainAtS: 1 << 30, Rate: 1e9, Seed: 9}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SamplesSent != 11 { // t = 0,5,...,50
		t.Errorf("sent %d samples, want 11", rep.SamplesSent)
	}
	if rep.SamplesApplied != 11 || rep.SamplesRejected != 0 {
		t.Errorf("applied %d rejected %d", rep.SamplesApplied, rep.SamplesRejected)
	}
}
