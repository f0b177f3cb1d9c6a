package world

import (
	"testing"

	"prepare/internal/metrics"
)

func testConfig(seed int64) Config {
	return Config{Seed: seed, VMs: 24, GroupSize: 8, TrainWave: [2]int64{60, 180}, TrainJitterS: 20, SteadyFromS: 300, PeriodS: 600, EpisodeS: 150}
}

func rows(t *testing.T, seed int64) ([]metrics.Vector, []metrics.Label) {
	t.Helper()
	w, err := New(testConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	var vs []metrics.Vector
	var ls []metrics.Label
	for s := int64(0); s <= 900; s += SamplingS {
		for vm := 0; vm < w.VMs(); vm++ {
			var v metrics.Vector
			w.Row(vm, s, &v)
			vs = append(vs, v)
		}
		for g := 0; g < w.Groups(); g++ {
			ls = append(ls, w.Label(g, s))
		}
	}
	return vs, ls
}

func TestSameSeedSameRows(t *testing.T) {
	a, al := rows(t, 7)
	b, bl := rows(t, 7)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("%d and %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between two worlds of one seed", i)
		}
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("label %d differs between two worlds of one seed", i)
		}
	}
	c, _ := rows(t, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("another seed produced the same rows")
	}
}

// Episodes must be there for the detectors to find: every VM has its
// training episode, the recurring ones cover about EpisodeS/PeriodS of
// the steady phase, and a group is abnormal exactly while a member is
// deep in one.
func TestEpisodesAndLabels(t *testing.T) {
	w, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	inEpisode, total := 0, 0
	for vm := 0; vm < w.VMs(); vm++ {
		trained := false
		for s := cfg.TrainWave[0]; s < cfg.TrainWave[1]+cfg.TrainJitterS; s++ {
			trained = trained || w.Progress(vm, s) > ViolatedAt
		}
		if !trained {
			t.Errorf("VM %d has no training episode", vm)
		}
		for s := cfg.SteadyFromS; s < cfg.SteadyFromS+2*cfg.PeriodS; s++ {
			total++
			if w.Progress(vm, s) > 0 {
				inEpisode++
			}
		}
		if start := w.NextEpisode(vm, cfg.SteadyFromS); w.Progress(vm, start) == 0 || start > cfg.SteadyFromS && w.Progress(vm, start-1) != 0 {
			t.Errorf("VM %d: NextEpisode = %d is not an episode start", vm, start)
		}
	}
	if got, want := float64(inEpisode)/float64(total), float64(cfg.EpisodeS)/float64(cfg.PeriodS); got != want {
		t.Errorf("share of VM-seconds inside an episode = %v, want %v", got, want)
	}
	for s := int64(0); s < 900; s += 7 {
		for g := 0; g < w.Groups(); g++ {
			any := false
			for vm := g * cfg.GroupSize; vm < (g+1)*cfg.GroupSize; vm++ {
				any = any || w.Progress(vm, s) > ViolatedAt
			}
			if w.Violated(g, s) != any {
				t.Fatalf("group %d at t=%d: Violated = %t, members say %t", g, s, w.Violated(g, s), any)
			}
		}
	}
}
