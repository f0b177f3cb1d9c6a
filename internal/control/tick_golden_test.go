package control

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/telemetry"
)

// The digests in this file were recorded at commit dd30935 from the
// per-VM scalar tick (the batch knob's off position), the oracle the
// columnar tick had been pinned DeepEqual to since PR 6. That path and
// its knob are gone; the one remaining tick must keep reproducing what
// it produced. A digest that changes means the alert, prevention-step or
// telemetry-event stream changed — update the constant only for a
// change that is meant to alter behaviour, and say so in the PR.

// streamDigests are the SHA-256 digests of one run's three canonical
// streams. Floats are hashed by their IEEE-754 bits.
type streamDigests struct {
	alerts, steps, events string
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// skipUnlessAMD64 skips a golden test on architectures whose compilers
// may fuse multiply-adds, which changes the low bits of scores.
func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64, not %s", runtime.GOARCH)
	}
}

func hashAlert(h hash.Hash, tenant string, a AlertEvent) {
	fmt.Fprintf(h, "%s|%d|%s|%016x|%t\n", tenant, a.Time.Seconds(), a.VM, math.Float64bits(a.Score), a.Predicted)
}

func hashStep(h hash.Hash, tenant string, s prevent.Step) {
	fmt.Fprintf(h, "%s|%d|%s|%d|%d|%s\n", tenant, s.Time.Seconds(), s.VM, int(s.Kind), int(s.Resource), s.Detail)
}

func digestController(ctl *Controller, reg *telemetry.Registry) streamDigests {
	ha, hs, he := sha256.New(), sha256.New(), sha256.New()
	for _, a := range ctl.Alerts() {
		hashAlert(ha, "", a)
	}
	for _, s := range ctl.Steps() {
		hashStep(hs, "", s)
	}
	for _, e := range reg.Snapshot().Events {
		fmt.Fprintf(he, "%d|%d|%s|%s|%s|%s", e.Seq, e.SimTime, e.VM, e.Stage, e.Kind, e.Detail)
		for _, f := range e.Fields {
			fmt.Fprintf(he, "|%s=%016x", f.Key, math.Float64bits(f.Value))
		}
		fmt.Fprintln(he)
	}
	return streamDigests{alerts: hexSum(ha), steps: hexSum(hs), events: hexSum(he)}
}

// TestTickGolden drives the synthetic world at three fleet sizes, clean
// and under 5% chaos (metric drops, stuck sensors, NaNs, actuator
// faults), and checks all three streams against the recorded digests.
func TestTickGolden(t *testing.T) {
	skipUnlessAMD64(t)
	for _, tc := range []struct {
		nVMs  int
		until int64 // the 100-VM runs stop earlier to stay fast; they still cross two post-training episodes
		chaos float64
		want  streamDigests
	}{
		{1, 700, 0, streamDigests{
			alerts: "d1aa284f92abfe5875c8ce337a9f4c907930a3fdaf88609fb3f3b788c654bb12",
			steps:  "2c89756406bc10910d97de033c273ecb030972f9e209014889881ebd514d9311",
			events: "f11a1bc90a8e5ca5293e0a22547bdffd9189f50245ee8d886f455b554c20244e",
		}},
		{7, 700, 0, streamDigests{
			alerts: "56d7d3a796b17d27934e756010723cd57d444ca5a851c465bb4f65c35810b335",
			steps:  "40d1c86e890a6a71871d687c3aa3542439d8951dd9d88355fdf9e7d1a3e32791",
			events: "0da2f462772bd0edd7cf8a7b3a3c4283cabfee77e0c5ae9e2ee1d5f976769c93",
		}},
		{100, 550, 0, streamDigests{
			alerts: "09e3db9dcd85aef82d496b9b401dab7c4b29f645582cd72ba93da59f78d3b79f",
			steps:  "8064e274a8f5bf4db33b863e983bdc8aaa9fcaa6ffbaf9af6b8ae676f130365b",
			events: "a8c31fe8e151dc594d2b251c8bd80c079e20a003577119810e97e2b169a63f6a",
		}},
		{1, 700, 0.05, streamDigests{
			alerts: "cc63af39abb6adc2f1a234114ef611812abafb7931f6728f956ac0b41f23ab30",
			steps:  "d9c27703c541473fbd374c51285134b62204bb3a7513af87e54ccd4090f9ad80",
			events: "dc3dbd6ec7ce3ae409e8d3181f56f8c926febe5153adb4fbae088e9607c6414b",
		}},
		{7, 700, 0.05, streamDigests{
			alerts: "4ad8851627004426fc92a70753ea50438efdb00306c19c24dd0d7f0d674f58d5",
			steps:  "a7b42a8a7fbe484ad98220b8d7099a399cd791ba7e220a80eeb6eab9ee2b4103",
			events: "294bcbf9f265354b1f2da86385ceec45f1d7386d84061aa7836656c7bff979c4",
		}},
		{100, 550, 0.05, streamDigests{
			alerts: "56516b91c6261dcd4d48d1e7c21e0f8992385ab38a0d6fd96e4bb58256bcb696",
			steps:  "67f22f733adb6307e4cd966865b6fcdc7dba55e341b4c601a035a288b17e3bd6",
			events: "bb7c8e9a13ce242ba566f17a5991c548bf22941ca0b9d9a00f6a41666d700be6",
		}},
	} {
		tc := tc
		t.Run(fmt.Sprintf("vms=%d/chaos=%v", tc.nVMs, tc.chaos), func(t *testing.T) {
			ctl, reg := runSynth(t, tc.nVMs, tc.until, tc.chaos)
			if len(ctl.Alerts()) == 0 {
				t.Error("no alerts fired; the golden check exercised nothing")
			}
			if got := digestController(ctl, reg); got != tc.want {
				t.Errorf("streams diverged from the recorded oracle:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestTickGoldenEngineAcrossShards runs a 4-tenant engine at shard
// counts 1 and 4: both must reproduce the recorded merged alert and
// step logs.
func TestTickGoldenEngineAcrossShards(t *testing.T) {
	skipUnlessAMD64(t)
	want := streamDigests{
		alerts: "5cd8bc6ac171c33aa29153b560a05806cad0bfbed869de3fa2b020da73b3c71c",
		steps:  "090532bba23875b750019f6ad3375e62336fc72d5283215707d34ef531928143",
	}
	for _, shards := range []int{1, 4} {
		tenants := make([]Tenant, 4)
		for i := range tenants {
			w := newSynthWorld(3 + i)
			ctl, err := New(SchemePREPARE, w, w, Config{
				TrainAtS:    300,
				MonitorSeed: int64(100 + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			tenants[i] = Tenant{
				ID:         fmt.Sprintf("tenant-%d", i),
				Controller: ctl,
				Advance: func(now simclock.Time) error {
					w.Tick(now)
					return nil
				},
			}
		}
		eng, err := NewEngine(tenants, EngineOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(600); err != nil {
			t.Fatal(err)
		}
		ha, hs := sha256.New(), sha256.New()
		for _, a := range eng.Alerts() {
			hashAlert(ha, a.Tenant, a.AlertEvent)
		}
		for _, s := range eng.Steps() {
			hashStep(hs, s.Tenant, s.Step)
		}
		if len(eng.Alerts()) == 0 {
			t.Fatal("no alerts fired; the golden check exercised nothing")
		}
		if got := (streamDigests{alerts: hexSum(ha), steps: hexSum(hs)}); got != want {
			t.Errorf("shards=%d: streams diverged from the recorded oracle:\n got  %+v\n want %+v", shards, got, want)
		}
	}
}
