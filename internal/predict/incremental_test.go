package predict

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"prepare/internal/bayes"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

// frozenRefitModel rebuilds the classifier the way a batch refit over
// the full history would, holding the discretizers and the relabel
// baseline frozen at their initial-training state — which is exactly
// the equivalence incremental training promises: same gate, same
// backward extension, same minimum-support fold, same counts, same
// Chow-Liu tree and CPTs.
func frozenRefitModel(t *testing.T, p *Predictor, rows [][]float64, rawLabels []metrics.Label, lookback int) *bayes.Model {
	t.Helper()
	labels := append([]metrics.Label(nil), rawLabels...)
	if p.inc.base != nil {
		deviating := make([]bool, len(rows))
		for i, row := range rows {
			deviating[i] = p.inc.base.deviating(row)
		}
		gateAndExtend(labels, deviating, lookback)
		applyMinSupport(labels)
	}
	binsPerAttr := make([]int, len(p.vm.names))
	for j := range binsPerAttr {
		binsPerAttr[j] = p.vm.cfg.Bins
	}
	ct, err := bayes.NewCountTable(binsPerAttr)
	if err != nil {
		t.Fatal(err)
	}
	binned := make([]int, len(p.vm.names))
	for i, row := range rows {
		if labels[i] == metrics.LabelUnknown {
			continue
		}
		for j, v := range row {
			binned[j] = p.vm.disc[j].Bin(v)
		}
		if err := ct.Add(binned, labels[i] == metrics.LabelAbnormal); err != nil {
			t.Fatal(err)
		}
	}
	model, err := bayes.TrainFromCounts(ct, bayes.Options{Naive: p.vm.cfg.Naive})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestTrainIncrementalMatchesBatchTrain: the initial incremental fit
// must be bit-identical to a plain batch Train on the same window — the
// sufficient statistics ride along without changing the model.
func TestTrainIncrementalMatchesBatchTrain(t *testing.T) {
	rows, labels := benchTrace(600, 3)
	const lookback = 24

	p, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrainIncremental(rows, labels, lookback); err != nil {
		t.Fatal(err)
	}

	q, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	batchLabels := append([]metrics.Label(nil), labels...)
	batchRows := make([][]float64, len(rows))
	copy(batchRows, rows)
	RelabelForTraining(batchRows, batchLabels, lookback)
	if err := q.Train(batchRows, batchLabels); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(modelSnapshot(p.model), modelSnapshot(q.model)) {
		t.Fatal("initial incremental model differs from batch model")
	}
	// Chains and discretizers must match too: identically trained
	// predictors produce identical window verdicts.
	pv, err := p.PredictWindow(120)
	if err != nil {
		t.Fatal(err)
	}
	qv, err := q.PredictWindow(120)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pv, qv) {
		t.Fatalf("verdicts differ after identical training: %+v vs %+v", pv, qv)
	}
}

// TestRetrainMatchesFrozenBatch is the tentpole equivalence property:
// stream samples one Update at a time, Retrain at several checkpoints,
// and at every checkpoint the rebuilt classifier must equal — exactly,
// not approximately — what a batch refit over the full history with
// frozen discretizers/baseline would produce. Unknown labels, the
// deviation gate, onset backward extension, and the minimum-support
// fold are all exercised by the synthetic trace.
func TestRetrainMatchesFrozenBatch(t *testing.T) {
	rows, raw := benchTrace(1200, 42)
	// Punch unknown labels into the stream so the unlabeled path (chains
	// advance, classifier counts skip) is exercised.
	for i := 0; i < len(raw); i += 97 {
		raw[i] = metrics.LabelUnknown
	}
	const prefix, lookback = 400, 24

	p, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrainIncremental(rows[:prefix], raw[:prefix], lookback); err != nil {
		t.Fatal(err)
	}

	checkpoints := map[int]bool{500: true, 700: true, 900: true, 1200: true}
	for i := prefix; i < len(rows); i++ {
		if err := p.Update(rows[i], raw[i]); err != nil {
			t.Fatal(err)
		}
		if !checkpoints[i+1] {
			continue
		}
		if err := p.Retrain(); err != nil {
			t.Fatal(err)
		}
		want := frozenRefitModel(t, p, rows[:i+1], raw[:i+1], lookback)
		if !reflect.DeepEqual(modelSnapshot(p.model), modelSnapshot(want)) {
			t.Fatalf("checkpoint %d: incremental model differs from frozen batch refit", i+1)
		}
	}
	if got := p.IncrementalUpdates(); got != uint64(len(rows)-prefix) {
		t.Errorf("IncrementalUpdates = %d, want %d", got, len(rows)-prefix)
	}
}

// fuzzTrace draws n rows of four columns: a noisy steady state broken
// by episodes in which the first two columns jump far from it, first for
// up to five rows still labeled normal (the pre-violation drift the
// backward extension claims) and then for a run of 1 to 12 rows labeled
// abnormal, so the abnormal class lands on both sides of the
// minimum-support threshold. Abnormal labels also leak onto quiet rows,
// which the deviation gate must turn back, and a share of the rows is
// unlabeled.
func fuzzTrace(rng *rand.Rand, n, episodes int) ([][]float64, []metrics.Label) {
	phase := make([]int, n) // 0 quiet, 1 drifting, 2 violating
	for e := 0; e < episodes; e++ {
		start, pre, run := rng.Intn(n), rng.Intn(6), 1+rng.Intn(12)
		for i := start; i < start+pre+run && i < n; i++ {
			phase[i] = 1
			if i >= start+pre {
				phase[i] = 2
			}
		}
	}
	unknownEvery := 3 + rng.Intn(40)
	rows := make([][]float64, n)
	labels := make([]metrics.Label, n)
	for i := range rows {
		row := make([]float64, 4)
		for j := range row {
			row[j] = 50 + 5*rng.NormFloat64()
		}
		labels[i] = metrics.LabelNormal
		if phase[i] > 0 {
			row[0] += 200
			row[1] -= 150
		}
		if phase[i] == 2 || (phase[i] == 0 && rng.Intn(25) == 0) {
			labels[i] = metrics.LabelAbnormal
		}
		if rng.Intn(unknownEvery) == 0 {
			labels[i] = metrics.LabelUnknown
		}
		rows[i] = row
	}
	return rows, labels
}

// FuzzTrainIncrementalMatchesBatch is the equivalence the one TAN fit
// rests on, over random traces, look-backs and prefixes: TrainIncremental
// on the prefix yields the model RelabelForTraining followed by Train
// yields, and after each Update of the rest of the trace a Retrain (at
// random points) yields the model a fit over the whole history so far,
// relabeled against the same frozen baseline, would (frozenRefitModel).
func FuzzTrainIncrementalMatchesBatch(f *testing.F) {
	f.Add(int64(1), uint16(200), uint16(90), uint8(12), uint8(4), uint8(5), false)
	f.Add(int64(2), uint16(300), uint16(150), uint8(24), uint8(7), uint8(1), false)
	f.Add(int64(3), uint16(120), uint16(40), uint8(0), uint8(3), uint8(9), true)
	f.Add(int64(4), uint16(250), uint16(60), uint8(6), uint8(6), uint8(3), false)
	f.Add(int64(5), uint16(30), uint16(5), uint8(31), uint8(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n, prefix uint16, lookback, episodes, retrainEvery uint8, naive bool) {
		rng := rand.New(rand.NewSource(seed))
		rowsN := 12 + int(n)%300
		pre := 1 + int(prefix)%rowsN
		lb := int(lookback) % 32
		rows, raw := fuzzTrace(rng, rowsN, int(episodes)%8)
		names := []string{"a", "b", "c", "d"}
		cfg := Config{Naive: naive}

		p, err := New(cfg, names)
		if err != nil {
			t.Fatal(err)
		}
		errInc := p.TrainIncremental(rows[:pre], raw[:pre], lb)
		q, err := New(cfg, names)
		if err != nil {
			t.Fatal(err)
		}
		relabeled := append([]metrics.Label(nil), raw[:pre]...)
		RelabelForTraining(rows[:pre], relabeled, lb)
		errBatch := q.Train(rows[:pre], relabeled)
		if (errInc == nil) != (errBatch == nil) {
			t.Fatalf("TrainIncremental: %v, RelabelForTraining + Train: %v", errInc, errBatch)
		}
		if errInc != nil {
			return
		}
		if !reflect.DeepEqual(modelSnapshot(p.model), modelSnapshot(q.model)) {
			t.Fatal("TrainIncremental model differs from RelabelForTraining + Train")
		}

		every := 1 + int(retrainEvery)%40
		for i := pre; i < rowsN; i++ {
			if err := p.Update(rows[i], raw[i]); err != nil {
				t.Fatal(err)
			}
			if i != rowsN-1 && rng.Intn(every) != 0 {
				continue
			}
			if err := p.Retrain(); err != nil {
				t.Fatal(err)
			}
			want := frozenRefitModel(t, p, rows[:i+1], raw[:i+1], lb)
			if !reflect.DeepEqual(modelSnapshot(p.model), modelSnapshot(want)) {
				t.Fatalf("row %d: retrained model differs from the frozen refit", i+1)
			}
		}
	})
}

// TestIncrementalSaveLoadResumesIdentically: snapshotting an
// incrementally trained predictor mid-stream and restoring it must
// resume exactly — same verdicts on every subsequent tick, same model
// after the next retrain.
func TestIncrementalSaveLoadResumesIdentically(t *testing.T) {
	rows, raw := benchTrace(1000, 7)
	const prefix, lookback = 400, 24

	p, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrainIncremental(rows[:prefix], raw[:prefix], lookback); err != nil {
		t.Fatal(err)
	}
	for i := prefix; i < 700; i++ {
		if err := p.Update(rows[i], raw[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Retrain(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.IncrementalUpdates() != p.IncrementalUpdates() {
		t.Fatalf("restored updates = %d, want %d", q.IncrementalUpdates(), p.IncrementalUpdates())
	}

	for i := 700; i < len(rows); i++ {
		if err := p.Update(rows[i], raw[i]); err != nil {
			t.Fatal(err)
		}
		if err := q.Update(rows[i], raw[i]); err != nil {
			t.Fatal(err)
		}
		pv, err := p.PredictWindow(120)
		if err != nil {
			t.Fatal(err)
		}
		qv, err := q.PredictWindow(120)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pv, qv) {
			t.Fatalf("step %d: restored predictor diverged: %+v vs %+v", i, pv, qv)
		}
		if i == 850 {
			if err := p.Retrain(); err != nil {
				t.Fatal(err)
			}
			if err := q.Retrain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(modelSnapshot(p.model), modelSnapshot(q.model)) {
		t.Fatal("models diverged after resume")
	}
}

// TestUpdateAllocBudget pins the O(1) per-sample cost in allocations:
// after warm-up, folding one sample into the statistics must not
// allocate at all (ring slots and scratch buffers are recycled).
func TestUpdateAllocBudget(t *testing.T) {
	rows, raw := benchTrace(800, 13)
	p, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrainIncremental(rows[:400], raw[:400], 24); err != nil {
		t.Fatal(err)
	}
	i := 400
	allocs := testing.AllocsPerRun(300, func() {
		if err := p.Update(rows[i%len(rows)], raw[i%len(rows)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Errorf("Update allocates %.1f/op, want 0", allocs)
	}
}

// TestRetrainAllocatesNothing pins the in-place retrain: once the first
// Retrain and ScoreWindow have sized the model's and the log-ratio
// table's storage, a stretch of Updates, a Retrain and the fleet score
// that follows allocate nothing; so does moving a counted row across
// classes and back in the integer count table. (The minimum-support
// fold clones the count table, so the abnormal class must be past it.)
func TestRetrainAllocatesNothing(t *testing.T) {
	rows, raw := benchTrace(1200, 13)
	for i, row := range rows {
		if raw[i] == metrics.LabelAbnormal {
			row[5] += 200 // two more deviating columns carry the
			row[7] += 200 // abnormal rows through the deviation gate
		}
	}
	p, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrainIncremental(rows[:600], raw[:600], 24); err != nil {
		t.Fatal(err)
	}
	for i := 600; i < 1000; i++ {
		if err := p.Update(rows[i], raw[i]); err != nil {
			t.Fatal(err)
		}
	}
	if ab := p.inc.ct.ClassCount(true); ab < minAbnormalSupport {
		t.Fatalf("abnormal support %v is below the fold threshold %d", ab, minAbnormalSupport)
	}
	fleet := NewFleet()
	cycle := func() {
		for k := 0; k < 5; k++ {
			i := 600 + int(p.inc.updates)%600
			if err := p.Update(rows[i], raw[i]); err != nil {
				t.Fatal(err)
			}
		}
		if e := p.inc.at(0); e.counted {
			abnormal := e.applied == metrics.LabelAbnormal
			if err := p.inc.ct.Relabel(e.bins, !abnormal); err != nil {
				t.Fatal(err)
			}
			if err := p.inc.ct.Relabel(e.bins, abnormal); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Retrain(); err != nil {
			t.Fatal(err)
		}
		if _, err := fleet.ScoreWindow(p, 120); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up
	if allocs := testing.AllocsPerRun(40, cycle); allocs != 0 {
		t.Fatalf("Update x5 + Retrain + ScoreWindow allocates %.1f/op, want 0", allocs)
	}
}

// TestRefitFailureKeepsModel: a Retrain that cannot fit (here an empty
// count table) reports the error and leaves the old fit scoring, bit
// for bit.
func TestRefitFailureKeepsModel(t *testing.T) {
	p := incrementalAtHistory(t, 800)
	fleet := NewFleet()
	before, err := fleet.ScoreWindow(p, 120)
	if err != nil {
		t.Fatal(err)
	}
	var counts bayes.CountSnapshot
	p.inc.ct.SnapshotInto(&counts)
	empty, err := bayes.NewCountTable(counts.Bins)
	if err != nil {
		t.Fatal(err)
	}
	p.inc.ct = empty
	if err := p.Retrain(); !errors.Is(err, bayes.ErrNoInstances) {
		t.Fatalf("Retrain from an empty table: %v, want ErrNoInstances", err)
	}
	after, err := fleet.ScoreWindow(p, 120)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after.Score) != math.Float64bits(before.Score) || after.BestStep != before.BestStep {
		t.Fatalf("score after a failed refit %+v, before %+v", after, before)
	}
}

// TestRowsFromSamplesAllocBudget pins the shared-backing-array layout:
// converting a series must cost three allocations (row headers, labels,
// one backing array), not two plus one per sample.
func TestRowsFromSamplesAllocBudget(t *testing.T) {
	samples := make([]metrics.Sample, 1000)
	for i := range samples {
		samples[i].Time = simclock.Time(i)
		samples[i].Label = metrics.LabelNormal
	}
	allocs := testing.AllocsPerRun(50, func() {
		rows, labels := RowsFromSamples(samples)
		if len(rows) != len(samples) || len(labels) != len(samples) {
			t.Fatal("shape mismatch")
		}
	})
	if allocs > 3 {
		t.Errorf("RowsFromSamples allocates %.1f/op, budget 3", allocs)
	}
}

// modelSnapshot exports a TAN model through SnapshotInto.
func modelSnapshot(m *bayes.Model) bayes.Snapshot {
	var s bayes.Snapshot
	m.SnapshotInto(&s)
	return s
}
