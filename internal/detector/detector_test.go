package detector

import (
	"io"
	"math"
	"testing"

	"prepare/internal/metrics"
	"prepare/internal/telemetry"
)

func TestParseSpecRoundTrip(t *testing.T) {
	for _, text := range []string{
		"tan", "kmeans", "ewma", "zrobust",
		"ensemble:tan+ewma", "ensemble:tan+ewma@1", "ensemble:tan+ewma+zrobust@2",
	} {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got := spec.String(); got != text {
			t.Errorf("ParseSpec(%q).String() = %q", text, got)
		}
	}
	if spec, err := ParseSpec(""); err != nil || !spec.IsZero() {
		t.Errorf("empty spec = %+v, %v; want zero", spec, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{
		"bogus",                  // unknown kind
		"ensemble:tan",           // one member
		"ensemble:tan+bogus",     // unknown member
		"ensemble:tan+ewma@3",    // quorum > members
		"ensemble:tan+ewma@x",    // non-numeric quorum
		"ensemble:tan+ensemble",  // nesting
		"ensemble:tan+ewma@-1",   // negative quorum
		"ensemble:" + "tan+"[:3], // trailing separator leaves one member
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", text)
		}
	}
	if err := (Spec{Kind: KindTAN, Quorum: 2}).Validate(); err == nil {
		t.Error("single-kind spec with quorum validated")
	}
}

// rampRows builds a flat training stream and a post-training ramp on
// one attribute.
func rampRows(dims, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dims)
		for j := range rows[i] {
			rows[i][j] = 10 + float64((i+j)%3) // small jitter
		}
	}
	return rows
}

func TestEWMADetectsRampWithLead(t *testing.T) {
	const dims = 4
	e := NewEWMA(dims, EWMAOptions{})
	if e.Trained() {
		t.Fatal("untrained detector reports trained")
	}
	if err := e.Train(rampRows(dims, 60), nil); err != nil {
		t.Fatal(err)
	}

	var alerted bool
	row := make([]float64, dims)
	for i := 0; i < 40; i++ {
		copy(row, []float64{10, 11, 10, 10})
		row[2] = 10 + float64(i)*2 // ramp on attribute 2
		if err := e.Observe(row); err != nil {
			t.Fatal(err)
		}
		dec, err := e.Score(120)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Abnormal {
			alerted = true
			if dec.LeadSteps == 0 {
				t.Errorf("ramp alert at step %d has no lead", i)
			}
			v, err := e.Verdict()
			if err != nil {
				t.Fatal(err)
			}
			if len(v.Strengths) == 0 || v.Strengths[0].Attribute != 2 {
				t.Fatalf("ramp attribution %+v, want attribute 2 first", v.Strengths)
			}
			// The projected alert precedes the sample itself crossing.
			cur, err := e.Current(row)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Score >= dec.Score {
				t.Errorf("current score %.2f >= projected %.2f: no lead from the trend", cur.Score, dec.Score)
			}
			break
		}
	}
	if !alerted {
		t.Fatal("EWMA never alerted on a steep ramp")
	}
}

func TestZRobustThresholdFree(t *testing.T) {
	const dims = 3
	z := NewZRobust(dims, ZRobustOptions{})
	if err := z.Train(rampRows(dims, 80), nil); err != nil {
		t.Fatal(err)
	}
	// A stream near baseline never alerts (MinScore floor).
	for i := 0; i < 30; i++ {
		if err := z.Observe([]float64{10, 11, 12}); err != nil {
			t.Fatal(err)
		}
		if dec, err := z.Score(120); err != nil || dec.Abnormal {
			t.Fatalf("flat stream alerted at %d: %+v %v", i, dec, err)
		}
	}
	// A massive jump is an extreme outlier of the calibrated stream.
	if err := z.Observe([]float64{10, 11, 500}); err != nil {
		t.Fatal(err)
	}
	dec, err := z.Score(120)
	if err != nil || !dec.Abnormal {
		t.Fatalf("jump not alerted: %+v %v", dec, err)
	}
	v, err := z.Verdict()
	if err != nil || len(v.Strengths) == 0 || v.Strengths[0].Attribute != 2 {
		t.Fatalf("jump attribution %+v %v, want attribute 2 first", v, err)
	}
}

// stubDetector casts scripted votes for ensemble logic tests.
type stubDetector struct {
	kind     string
	abnormal bool
	score    float64
	lead     int
}

func (s *stubDetector) Kind() string                             { return s.kind }
func (s *stubDetector) Train([][]float64, []metrics.Label) error { return nil }
func (s *stubDetector) Trained() bool                            { return true }
func (s *stubDetector) Update([]float64, metrics.Label) error    { return nil }
func (s *stubDetector) Observe([]float64) error                  { return nil }
func (s *stubDetector) Retrain() error                           { return nil }
func (s *stubDetector) Save(io.Writer) error                     { return nil }
func (s *stubDetector) AppendBinary(b []byte) ([]byte, error)    { return b, nil }
func (s *stubDetector) Score(int64) (Decision, error) {
	return Decision{Abnormal: s.abnormal, Score: s.score, LeadSteps: s.lead}, nil
}
func (s *stubDetector) Verdict() (Verdict, error) {
	return Verdict{Abnormal: s.abnormal, Score: s.score,
		Strengths: []Strength{{Attribute: 1, L: s.score}}}, nil
}
func (s *stubDetector) Current([]float64) (Verdict, error) { return s.Verdict() }

func TestEnsembleQuorumVoting(t *testing.T) {
	yes := &stubDetector{kind: KindEWMA, abnormal: true, score: 9, lead: 3}
	no := &stubDetector{kind: KindZRobust, abnormal: false, score: 0.1}

	// Strict majority of two members = both must vote.
	and, err := NewEnsemble([]Member{{Detector: yes}, {Detector: no}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := and.Score(120)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Abnormal || dec.Score != 0.5 {
		t.Fatalf("1-of-2 votes under strict majority: %+v", dec)
	}

	// Quorum 1 = OR; the lead comes from the abnormal voter.
	or, err := NewEnsemble([]Member{{Detector: yes}, {Detector: no}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err = or.Score(120); err != nil || !dec.Abnormal || dec.LeadSteps != 3 {
		t.Fatalf("1-of-2 votes under quorum 1: %+v %v", dec, err)
	}
	v, err := or.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Abnormal || len(v.Strengths) == 0 {
		t.Fatalf("OR verdict %+v, want abnormal with merged strengths", v)
	}

	// Weighted vote: a weight-2 member alone meets a quorum of 2.
	weighted, err := NewEnsemble([]Member{{Detector: yes, Weight: 2}, {Detector: no}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err = weighted.Score(120); err != nil || !dec.Abnormal {
		t.Fatalf("weighted vote: %+v %v", dec, err)
	}
	if want := 2.0 / 3.0; math.Abs(dec.Score-want) > 1e-12 {
		t.Fatalf("weighted vote share %v, want %v", dec.Score, want)
	}
}

func TestEnsembleTelemetryCounters(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	yes := &stubDetector{kind: KindEWMA, abnormal: true, score: 9}
	no := &stubDetector{kind: KindZRobust}
	e, err := NewEnsemble([]Member{{Detector: yes}, {Detector: no}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.SetTelemetry(reg, "vm1")
	for i := 0; i < 3; i++ {
		if _, err := e.Score(120); err != nil {
			t.Fatal(err)
		}
	}
	counters := reg.Snapshot().Counters
	if counters["detector.ensemble.vm1.alerts"] != 3 {
		t.Errorf("alerts counter = %d, want 3", counters["detector.ensemble.vm1.alerts"])
	}
	if counters["detector.ensemble.vm1.member.0:ewma.votes"] != 3 {
		t.Errorf("member vote counter = %d, want 3", counters["detector.ensemble.vm1.member.0:ewma.votes"])
	}
}

// streamScores trains nothing: it streams rows through an existing
// detector recording the Score decisions.
func streamScores(t *testing.T, d Detector, rows [][]float64) []Decision {
	t.Helper()
	out := make([]Decision, len(rows))
	for i, r := range rows {
		if err := d.Observe(r); err != nil {
			t.Fatal(err)
		}
		dec, err := d.Score(120)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = dec
	}
	return out
}

// TestSnapshotRoundTripResumesIdenticalScores checkpoints each in-package
// detector kind mid-stream and checks the restored detector produces a
// bit-identical decision stream on the remaining samples.
func TestSnapshotRoundTripResumesIdenticalScores(t *testing.T) {
	const dims = 5
	build := map[string]func() Detector{
		KindEWMA:    func() Detector { return NewEWMA(dims, EWMAOptions{}) },
		KindZRobust: func() Detector { return NewZRobust(dims, ZRobustOptions{}) },
		KindEnsemble: func() Detector {
			e, err := NewEnsemble([]Member{
				{Detector: NewEWMA(dims, EWMAOptions{})},
				{Detector: NewZRobust(dims, ZRobustOptions{})},
			}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
	}
	decode := map[string]func(b []byte) (Detector, error){
		KindEWMA:    func(b []byte) (Detector, error) { return DecodeEWMA(b) },
		KindZRobust: func(b []byte) (Detector, error) { return DecodeZRobust(b) },
		KindEnsemble: func(b []byte) (Detector, error) {
			return DecodeEnsemble(b, nil) // nil decoder: local kinds only
		},
	}

	// A stream with a mid-life drift so the decisions are non-trivial.
	stream := make([][]float64, 60)
	for i := range stream {
		stream[i] = make([]float64, dims)
		for j := range stream[i] {
			stream[i][j] = 10 + float64((i*3+j)%4)
		}
		if i > 30 {
			stream[i][1] = 10 + float64(i-30)*5
		}
	}

	for kind, mk := range build {
		t.Run(kind, func(t *testing.T) {
			d := mk()
			if err := d.Train(rampRows(dims, 50), nil); err != nil {
				t.Fatal(err)
			}
			_ = streamScores(t, d, stream[:20])

			snap, err := d.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := decode[kind](snap)
			if err != nil {
				t.Fatal(err)
			}
			if !restored.Trained() {
				t.Fatal("restored detector not trained")
			}
			want := streamScores(t, d, stream[20:])
			got := streamScores(t, restored, stream[20:])
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("decision %d diverged after restore: %+v vs %+v", i, got[i], want[i])
				}
			}
		})
	}
}
