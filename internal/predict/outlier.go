package predict

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"prepare/internal/binenc"
	"prepare/internal/detector"
	"prepare/internal/markov"
	"prepare/internal/metrics"
)

// Training constants of the outlier scorers.
const (
	// kmeansK is the number of clusters (clamped to the row count).
	kmeansK = 4
	// kmeansIterations bounds Lloyd's algorithm.
	kmeansIterations = 50
	// calibrationQuantile is the training-score quantile the alarm
	// threshold is calibrated from.
	calibrationQuantile = 0.995
)

// outlierDetector is the paper's Section V extension for anomalies the
// system has never seen: the same per-attribute Markov value prediction
// as the supervised Predictor, with the TAN classifier swapped for an
// outlier scorer fitted on unlabeled data presumed mostly normal. It is
// the kmeans kind and alerts when the predicted future state — or the
// state just observed — lies outside the learned normal operating modes.
type outlierDetector struct {
	opts DetectorOptions

	vm      valueModel
	sc      outlierScorer
	lastRow []float64 // the last streamed row; nil until one arrives
	trained bool

	lastScore float64
	lastValid bool

	values []float64 // scratch: the predicted row being scored
}

// Kind implements detector.Detector.
func (d *outlierDetector) Kind() string { return detector.KindKMeans }

// Train implements detector.Detector: labels are ignored — the detector
// learns the normal operating modes from the raw data.
func (d *outlierDetector) Train(rows [][]float64, _ []metrics.Label) error {
	vm, err := newValueModel(d.opts.Config, d.opts.Names)
	if err != nil {
		return err
	}
	if err := vm.fit(rows); err != nil {
		return err
	}
	d.vm = vm
	d.sc = trainOutlierScorer(rows, d.opts.Seed)
	d.values = make([]float64, len(vm.names))
	d.lastRow = nil
	d.trained = true
	d.lastValid = false
	return nil
}

// Trained implements detector.Detector.
func (d *outlierDetector) Trained() bool { return d.trained }

// Update implements detector.Detector: there are no labeled statistics
// to fold the sample into, so Update is Observe.
func (d *outlierDetector) Update(row []float64, _ metrics.Label) error { return d.Observe(row) }

// Observe implements detector.Detector.
func (d *outlierDetector) Observe(row []float64) error {
	if !d.trained {
		return ErrNotTrained
	}
	if err := d.vm.observe(row); err != nil {
		return err
	}
	d.lastRow = append(d.lastRow[:0], row...)
	return nil
}

// Retrain implements detector.Detector.
func (d *outlierDetector) Retrain() error {
	return errors.New("predict: unsupervised detectors do not support incremental retrain")
}

// scoreWithCurrent scores the predicted state held in d.values and
// takes the maximum with cur, the last observed row's score.
// Discretized value prediction can only extrapolate within the training
// value envelope (bin centers clamp), so truly unseen extremes manifest
// in the observed row first; covering both keeps the detector sensitive
// to them while the predicted-state term adds lead time for drifts
// inside the envelope.
func (d *outlierDetector) scoreWithCurrent(cur float64) float64 {
	if score := d.sc.score(d.values); score > cur {
		return score
	}
	return cur
}

// currentScore scores the last observed row: 0, which no score is
// below, until one arrives.
func (d *outlierDetector) currentScore() float64 {
	if d.lastRow == nil {
		return 0
	}
	return d.sc.score(d.lastRow)
}

// Score implements detector.Detector: the maximum score over every step
// of the look-ahead window, each step's state reconstructed from the
// chains' most likely bins.
func (d *outlierDetector) Score(lookaheadS int64) (detector.Decision, error) {
	if !d.trained {
		return detector.Decision{}, ErrNotTrained
	}
	tStart := d.opts.Instruments.windowStart()
	defer d.opts.Instruments.windowDone(tStart)
	steps := d.vm.stepsFor(lookaheadS)
	series := make([][][]float64, len(d.vm.chains))
	for j, ch := range d.vm.chains {
		series[j] = ch.PredictSeries(steps)
	}
	cur := d.currentScore()
	best := 0.0
	for s := 0; s < steps; s++ {
		for j := range series {
			d.values[j] = d.vm.disc[j].Center(markov.ArgMax(series[j][s]))
		}
		if score := d.scoreWithCurrent(cur); s == 0 || score > best {
			best = score
		}
	}
	d.lastScore, d.lastValid = best, true
	return detector.Decision{Abnormal: best > d.sc.threshold, Score: best}, nil
}

// Verdict implements detector.Detector: attribution of the last
// streamed row (the row Score's current-state term scored). Abnormal is
// always true: the control loop materializes verdicts only for
// confirmed alerts.
func (d *outlierDetector) Verdict() (detector.Verdict, error) {
	if !d.lastValid {
		return detector.Verdict{}, errors.New("predict: unsupervised verdict without a preceding score")
	}
	strengths, err := d.attribution(d.lastRow)
	if err != nil {
		return detector.Verdict{}, err
	}
	return detector.Verdict{Abnormal: true, Score: d.lastScore, Strengths: strengths}, nil
}

// Current implements detector.Detector: the one-step prediction (and the
// last streamed row) decide, the given sample is attributed.
func (d *outlierDetector) Current(row []float64) (detector.Verdict, error) {
	if !d.trained {
		return detector.Verdict{}, ErrNotTrained
	}
	for j, ch := range d.vm.chains {
		d.values[j] = d.vm.disc[j].Center(markov.ArgMax(ch.Predict(1)))
	}
	score := d.scoreWithCurrent(d.currentScore())
	strengths, err := d.attribution(row)
	if err != nil {
		return detector.Verdict{}, err
	}
	return detector.Verdict{Abnormal: score > d.sc.threshold, Score: score, Strengths: strengths}, nil
}

// attribution ranks every attribute by its share of the row's score,
// strongest first and column order breaking ties, so cause inference
// and prevention work as they do on TAN strengths. Attributes that
// contribute nothing stay in the ranking.
func (d *outlierDetector) attribution(row []float64) ([]detector.Strength, error) {
	if len(row) != len(d.vm.names) {
		return nil, fmt.Errorf("predict: attribution: %w: row has %d columns, want %d", ErrShape, len(row), len(d.vm.names))
	}
	out := make([]detector.Strength, len(row))
	for j, c := range d.sc.contributions(row) {
		out[j] = detector.Strength{Attribute: j, L: c}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].L > out[b].L })
	return out, nil
}

// outlierScorer is the kmeans kind's scorer: the distance, in
// robust-normalized space so attributes with wildly different units are
// comparable, from a row to the nearest cluster of normal states. The
// alarm threshold is calibrated from the training score distribution;
// no labeled anomalies are needed.
type outlierScorer struct {
	center, scale []float64
	centroids     [][]float64
	threshold     float64

	buf []float64 // scratch: the normalized row being scored
}

// trainOutlierScorer fits the scorer on rows, which the caller has
// checked to be non-empty and of equal width.
func trainOutlierScorer(rows [][]float64, seed int64) outlierScorer {
	var s outlierScorer
	s.center, s.scale = metrics.RobustScale(rows)
	data := make([][]float64, len(rows))
	for i, row := range rows {
		data[i] = append([]float64(nil), s.normalize(row)...)
	}
	s.centroids = kmeansCentroids(data, seed)
	scores := make([]float64, len(rows))
	for i, row := range rows {
		scores[i] = s.score(row)
	}
	s.threshold = quantile(scores, calibrationQuantile) * 1.25
	if s.threshold <= 0 {
		s.threshold = 1
	}
	return s
}

// normalize returns the row in normalized space; the result is scratch,
// valid until the next call.
func (s *outlierScorer) normalize(row []float64) []float64 {
	if len(s.buf) != len(row) {
		s.buf = make([]float64, len(row))
	}
	for j, v := range row {
		s.buf[j] = (v - s.center[j]) / s.scale[j]
	}
	return s.buf
}

// nearest returns the centroid closest to the normalized point p and
// its squared distance (nil and +Inf when no distance is comparable).
func (s *outlierScorer) nearest(p []float64) ([]float64, float64) {
	var nearest []float64
	best := math.Inf(1)
	for _, c := range s.centroids {
		if d := sqDist(p, c); d < best {
			best, nearest = d, c
		}
	}
	return nearest, best
}

// score returns the row's anomaly score (non-negative, higher is more
// anomalous).
func (s *outlierScorer) score(row []float64) float64 {
	_, d := s.nearest(s.normalize(row))
	return math.Sqrt(d)
}

// contributions returns each attribute's share of the row's score: its
// squared distance to the nearest centroid's coordinate.
func (s *outlierScorer) contributions(row []float64) []float64 {
	p := s.normalize(row)
	out := make([]float64, len(p))
	if nearest, _ := s.nearest(p); nearest != nil {
		for j := range p {
			d := p[j] - nearest[j]
			out[j] = d * d
		}
	}
	return out
}

// kmeansCentroids clusters normalized points: k-means++ style seeding
// (first centroid random, then farthest-point weighting, deterministic
// via the seed) followed by Lloyd's iterations.
func kmeansCentroids(data [][]float64, seed int64) [][]float64 {
	k := kmeansK
	if len(data) < k {
		k = len(data)
	}
	rng := rand.New(rand.NewSource(seed))
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), data[rng.Intn(len(data))]...))
	for len(centroids) < k {
		dists := make([]float64, len(data))
		total := 0.0
		for i, p := range data {
			d := math.Inf(1)
			for _, c := range centroids {
				if dd := sqDist(p, c); dd < d {
					d = dd
				}
			}
			dists[i] = d
			total += d
		}
		if total == 0 {
			centroids = append(centroids, append([]float64(nil), data[rng.Intn(len(data))]...))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := len(data) - 1
		for i, d := range dists {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), data[pick]...))
	}

	assign := make([]int, len(data))
	for iter := 0; iter < kmeansIterations; iter++ {
		changed := false
		for i, p := range data {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, len(centroids))
		sums := make([][]float64, len(centroids))
		for c := range sums {
			sums[c] = make([]float64, len(data[0]))
		}
		for i, p := range data {
			counts[assign[i]]++
			for j, v := range p {
				sums[assign[i]][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // keep the stale centroid rather than divide by zero
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// quantile returns the q-th (0..1) empirical quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	idx := int(q * float64(len(cp)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// outlierSnapshot is the one snapshot of a trained kmeans detector:
// the value model, the scorer, and the last observed row (part of the
// scoring state — Score takes the max with it), so a restored detector
// resumes an identical score stream. Save gives it its JSON form,
// AppendBinary its binary checkpoint form, in which the header stays
// JSON. The format names the kind twice, as it did when a second outlier
// kind shared it: Kind is the integer 1 (kmeansWireKind), Detector.Kind
// the spec string. Both are kept so existing checkpoints restore, and
// the loader requires both.
type outlierSnapshot struct {
	outlierHeader
	Chains   []markov.Snapshot `json:"chains"`
	Detector scorerSnapshot    `json:"detector"`
	LastRow  []float64         `json:"last_row,omitempty"`
}

// outlierHeader is the small scalar part of outlierSnapshot.
type outlierHeader struct {
	Version      int                           `json:"version"`
	Names        []string                      `json:"names"`
	Config       Config                        `json:"config"`
	Kind         int                           `json:"kind"`
	Discretizers []metrics.DiscretizerSnapshot `json:"discretizers"`
}

type scorerSnapshot struct {
	Kind      string      `json:"kind"`
	Center    []float64   `json:"center"`
	Scale     []float64   `json:"scale"`
	Centroids [][]float64 `json:"centroids,omitempty"`
	Threshold float64     `json:"threshold"`
}

// kmeansWireKind is the integer form of the kmeans kind in
// outlierSnapshot.
const kmeansWireKind = 1

// Save implements detector.Detector.
func (d *outlierDetector) Save(w io.Writer) error {
	snap, err := d.snapshot()
	if err != nil {
		return err
	}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("predict: encode unsupervised snapshot: %w", err)
	}
	return nil
}

// AppendBinary implements detector.Detector: the header as JSON, then
// the chains, the scorer and the last row.
func (d *outlierDetector) AppendBinary(b []byte) ([]byte, error) {
	snap, err := d.snapshot()
	if err != nil {
		return b, err
	}
	return snap.appendBinary(b)
}

// appendBinary appends the snapshot's binary checkpoint form to b.
func (snap *outlierSnapshot) appendBinary(b []byte) ([]byte, error) {
	e := binenc.NewEncoder(b)
	e.JSON(&snap.outlierHeader)
	encodeChains(&e, snap.Chains)
	sc := &snap.Detector
	e.String(sc.Kind)
	e.Floats(sc.Center)
	e.Floats(sc.Scale)
	e.Uvarint(uint64(len(sc.Centroids)))
	for _, c := range sc.Centroids {
		e.Floats(c)
	}
	e.Float64(sc.Threshold)
	e.Floats(snap.LastRow)
	return e.Finish()
}

// snapshot captures the trained detector.
func (d *outlierDetector) snapshot() (outlierSnapshot, error) {
	if !d.trained {
		return outlierSnapshot{}, ErrNotTrained
	}
	discs, chains, err := d.vm.snapshot(nil, nil)
	if err != nil {
		return outlierSnapshot{}, err
	}
	return outlierSnapshot{
		outlierHeader: outlierHeader{
			Version:      snapshotVersion,
			Names:        d.vm.names,
			Config:       d.vm.cfg,
			Kind:         kmeansWireKind,
			Discretizers: discs,
		},
		Chains: chains,
		Detector: scorerSnapshot{
			Kind:      detector.KindKMeans,
			Center:    d.sc.center,
			Scale:     d.sc.scale,
			Centroids: d.sc.centroids,
			Threshold: d.sc.threshold,
		},
		LastRow: d.lastRow,
	}, nil
}

// decodeOutlierDetector restores a kmeans detector from the bytes
// AppendBinary wrote.
func decodeOutlierDetector(b []byte, opts DetectorOptions) (*outlierDetector, error) {
	var snap outlierSnapshot
	d := binenc.NewDecoder(b)
	d.JSON(&snap.outlierHeader)
	snap.Chains = decodeChains(&d)
	sc := &snap.Detector
	sc.Kind = d.String()
	sc.Center, sc.Scale = d.Floats(), d.Floats()
	if n := d.Len(1); n > 0 {
		sc.Centroids = make([][]float64, n)
		for i := range sc.Centroids {
			sc.Centroids[i] = d.Floats()
		}
	}
	sc.Threshold = d.Float64()
	snap.LastRow = d.Floats()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("predict: decode unsupervised snapshot: %w", err)
	}
	return outlierFromSnapshot(&snap, opts)
}

// outlierFromSnapshot is the one validating restore of a kmeans
// snapshot, whichever encoding it was read from: it rejects one that
// was written for another kind or whose widths disagree with its column
// names.
func outlierFromSnapshot(snap *outlierSnapshot, opts DetectorOptions) (*outlierDetector, error) {
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("predict: unsupported unsupervised snapshot version %d", snap.Version)
	}
	sc := snap.Detector
	if snap.Kind != kmeansWireKind || sc.Kind != detector.KindKMeans {
		return nil, fmt.Errorf("predict: cannot load a kmeans detector from a snapshot of kind %d with detector kind %q",
			snap.Kind, sc.Kind)
	}
	vm, err := restoreValueModel(snap.Config, snap.Names, snap.Discretizers, snap.Chains)
	if err != nil {
		return nil, err
	}
	n := len(vm.names)
	if len(sc.Center) != n || len(sc.Scale) != n {
		return nil, fmt.Errorf("predict: snapshot has %d centers and %d scales, want %d", len(sc.Center), len(sc.Scale), n)
	}
	if len(sc.Centroids) == 0 {
		return nil, errors.New("predict: kmeans snapshot has no centroids")
	}
	for _, c := range sc.Centroids {
		if len(c) != n {
			return nil, fmt.Errorf("predict: snapshot centroid has %d columns, want %d", len(c), n)
		}
	}
	if snap.LastRow != nil && len(snap.LastRow) != n {
		return nil, fmt.Errorf("predict: snapshot last row has %d columns, want %d", len(snap.LastRow), n)
	}
	return &outlierDetector{
		opts:    opts,
		vm:      vm,
		sc:      outlierScorer{center: sc.Center, scale: sc.Scale, centroids: sc.Centroids, threshold: sc.Threshold},
		lastRow: snap.LastRow,
		trained: true,
		values:  make([]float64, n),
	}, nil
}
