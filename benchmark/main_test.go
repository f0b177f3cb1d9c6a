package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"prepare/benchmark/probes"
	"prepare/benchmark/trace"
	"prepare/benchmark/world"
)

// The same seed must give the same frames, byte for byte: the program
// under test sees nothing but generated inputs.
func TestSameSeedSameFrames(t *testing.T) {
	encode := func(seed int64) []byte {
		w, err := world.New(floodWorldConfig(seed, 4))
		if err != nil {
			t.Fatal(err)
		}
		fr := newFramer(w)
		var all []byte
		for s := int64(0); s <= 600; s += world.SamplingS {
			for g := 0; g < w.Groups(); g++ {
				for lo := 0; lo < floodGroupSize; lo += floodFrameVMs {
					if all, err = fr.frame(all, g, s, lo, floodFrameVMs); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return all
	}
	a, b := encode(11), encode(11)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("two encodings of seed 11 differ (%d and %d bytes)", len(a), len(b))
	}
	if bytes.Equal(a, encode(12)) {
		t.Error("seed 12 encodes to the same frames as seed 11")
	}
}

// The smoke pass runs every workload at tiny sizes, so a change that
// breaks the benchmark fails `go test` here and not at the next
// measurement. Every workload runs its untraced pass, its traced window
// and its capture; two of them (one per kind of capture) go through the
// whole traced run with every probe. It checks that each pass is correct
// and reports exactly the declared metrics; it measures nothing.
func TestSmokePass(t *testing.T) {
	dir := t.TempDir()
	sz := sizing{smoke: true}
	const window = 200 * time.Millisecond
	check := func(name string, decls []metricDecl, out outcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d notes=%v", name, out.Correct, out.Attempted, out.Failed, out.notes)
		}
		if len(out.Metrics) != len(decls) {
			t.Errorf("%s: %d metrics reported, %d declared", name, len(out.Metrics), len(decls))
		}
		for _, d := range decls {
			if v, ok := out.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: %s [%s] reported as %+v", name, d.Name, d.Unit, v)
			}
		}
		if _, err := json.Marshal(out); err != nil {
			t.Errorf("%s: result does not marshal: %v", name, err)
		}
	}
	start := time.Now()
	for _, w := range workloads() {
		out, err := runEndToEnd(w, 1, window, sz)
		check(w.name+" untraced", endToEnd, out, err)

		if w.name == "served_paced" || w.name == "paper_grid" {
			out, err := runTraced(w, 1, window, sz, dir)
			check(w.name+" traced", perLayer(), out, err)
			if _, err := os.Stat(dir + "/trace." + w.name + ".json"); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
			continue
		}
		inst, _, err := setUp(w, 1, sz, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New()
		rs, err := inst.run(window, tr)
		inst.close()
		if err != nil || rs.failed != 0 || len(tr.Spans()) == 0 {
			t.Errorf("%s traced window: err=%v failed=%d spans=%d", w.name, err, rs.failed, len(tr.Spans()))
		}
		if c, err := w.capture(1, sz); err != nil || c.Ticks <= c.TrainTicks || len(c.VMs) != probes.CaptureVMs {
			t.Errorf("%s capture: %+v, %v", w.name, c, err)
		}
	}
	t.Logf("smoke pass took %v", time.Since(start))
}

// BENCHMARK.json is generated from the declarations in manifest.go
// (`-manifest`); this fails when the two drift, and checks the limits
// the driver refuses a manifest over.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from `-manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads() {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v is out of the manifest's limits", d)
		}
		hasSetup = hasSetup || d == metricDecl{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	layers := perLayer()
	if len(layers) < 1 || len(layers) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(layers))
	}
	for _, d := range layers {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v is out of the manifest's limits", d)
		}
	}
}
