// Package detector defines the pluggable anomaly-detection layer: a
// small streaming interface every scorer (supervised Markov+TAN,
// unsupervised clustering/z-score, forecast-error EWMA, voting
// ensembles) implements, so the control loop drives one code path for
// all of them.
//
// The package depends only on internal/metrics and internal/telemetry
// (enforced by arch_test.go): concrete adapters for the heavyweight
// model-based detectors live with their models in internal/predict,
// and are constructed through predict.NewDetector.
package detector

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"prepare/internal/metrics"
)

// Strength is one attribute's contribution to an anomaly verdict,
// mirroring bayes.Strength without importing it: L > 0 means the
// attribute pushed the verdict toward abnormal.
type Strength struct {
	// Attribute is the 0-based column index of the attribute (the
	// bayes convention: metrics.Attribute is this plus one).
	Attribute int
	// L is the attribute's log-likelihood-ratio-style evidence weight.
	L float64
}

// Decision is the cheap result of scoring a prediction window: enough
// to drive the k-of-W alarm filter without materializing attribution.
type Decision struct {
	// Abnormal reports whether the window crossed the detector's alert
	// criterion.
	Abnormal bool
	// Score is the detector-specific anomaly score (higher is worse).
	Score float64
	// LeadSteps is the 1-based prediction step the score came from
	// (0 when the detector scored the current sample only).
	LeadSteps int
}

// Verdict is the materialized outcome for a confirmed alarm: the
// decision plus per-attribute attribution for diagnosis.
type Verdict struct {
	Abnormal  bool
	Score     float64
	LeadSteps int
	// Strengths ranks attributes by evidence weight, strongest first.
	Strengths []Strength
}

// Detector is the streaming interface the control loop drives.
//
// Lifecycle: Train (or a kind-specific decoder) first; then once per
// sampling tick exactly one of Update/Observe, followed by Score
// (predictive schemes; Verdict too when the alert is confirmed) or
// Current (reactive schemes). Verdict materializes the detector's own
// last Score: nothing may Update, Observe, Train or Retrain it in
// between, but other detectors — sharing scratch with it or not — may
// score in between. Implementations are not safe for concurrent use;
// the control loop confines each detector to its VM's shard.
type Detector interface {
	// Kind returns the spec kind that constructed this detector
	// (KindTAN, KindEWMA, ...).
	Kind() string

	// Train fits the detector from scratch on a labeled history.
	// Detectors that cannot use labels ignore them; labels may be nil.
	//
	// Train replaces all model state: training a detector that was
	// already trained (and streamed since) leaves it identical to a
	// fresh one trained on the same history. It retains neither rows
	// nor labels after returning, so the caller may refill both buffers
	// for the next VM; it may mutate labels while it runs.
	Train(rows [][]float64, labels []metrics.Label) error

	// Trained reports whether the detector is ready to score.
	Trained() bool

	// Update advances the streaming state by one sample and folds it
	// into any incrementally-maintained statistics.
	Update(row []float64, label metrics.Label) error

	// Observe advances the streaming state without learning from the
	// sample (used on the tick a fresh Train already consumed it).
	Observe(row []float64) error

	// Score scores the prediction window ending lookaheadS seconds
	// ahead of the last streamed sample.
	Score(lookaheadS int64) (Decision, error)

	// Verdict materializes the attribution for this detector's last
	// Score call.
	Verdict() (Verdict, error)

	// Current scores the given sample as-is (reactive path): no
	// prediction window, attribution included.
	Current(row []float64) (Verdict, error)

	// Retrain rebuilds the model in place from the statistics Update
	// has folded in. Only the tan detector keeps such statistics; the
	// other kinds return an error, and their host refits them via Train.
	Retrain() error

	// Save writes the detector's snapshot as JSON: the readable view of
	// a trained model.
	Save(w io.Writer) error

	// AppendBinary appends the same snapshot in its binary checkpoint
	// encoding to b, which the kind's decoder restores into a detector
	// resuming an identical score stream.
	AppendBinary(b []byte) ([]byte, error)
}

// Detector kinds accepted by ParseSpec. TAN and KMeans are
// backed by internal/predict models (constructed via predict.NewDetector);
// EWMA, ZRobust, and Ensemble are implemented in this package.
const (
	KindTAN      = "tan"
	KindKMeans   = "kmeans"
	KindEWMA     = "ewma"
	KindZRobust  = "zrobust"
	KindEnsemble = "ensemble"
)

// Spec selects a detector. The zero value means "default" (resolved to
// KindTAN by config normalization).
type Spec struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind,omitempty"`
	// Members lists the member kinds when Kind == KindEnsemble.
	Members []string `json:"members,omitempty"`
	// Quorum is the number of abnormal member votes required for an
	// ensemble alert; 0 means strict majority.
	Quorum int `json:"quorum,omitempty"`
}

// IsZero reports whether the spec is the unset default.
func (s Spec) IsZero() bool { return s.Kind == "" && len(s.Members) == 0 && s.Quorum == 0 }

// String renders the spec in ParseSpec syntax.
func (s Spec) String() string {
	if s.Kind == "" {
		return ""
	}
	if s.Kind != KindEnsemble {
		return s.Kind
	}
	out := KindEnsemble + ":" + strings.Join(s.Members, "+")
	if s.Quorum > 0 {
		out += "@" + strconv.Itoa(s.Quorum)
	}
	return out
}

// Validate checks kinds and ensemble shape.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindTAN, KindKMeans, KindEWMA, KindZRobust:
		if len(s.Members) > 0 || s.Quorum != 0 {
			return fmt.Errorf("detector: %s spec does not take members or quorum", s.Kind)
		}
		return nil
	case KindEnsemble:
		if len(s.Members) < 2 {
			return fmt.Errorf("detector: ensemble needs at least 2 members, got %d", len(s.Members))
		}
		for _, m := range s.Members {
			switch m {
			case KindTAN, KindKMeans, KindEWMA, KindZRobust:
			case KindEnsemble:
				return fmt.Errorf("detector: ensembles do not nest")
			default:
				return fmt.Errorf("detector: unknown ensemble member %q", m)
			}
		}
		if s.Quorum < 0 || s.Quorum > len(s.Members) {
			return fmt.Errorf("detector: quorum %d out of range for %d members", s.Quorum, len(s.Members))
		}
		return nil
	default:
		return fmt.Errorf("detector: unknown kind %q", s.Kind)
	}
}

// ParseSpec parses the CLI/config syntax:
//
//	tan | kmeans | ewma | zrobust
//	ensemble:tan+ewma          (strict-majority vote)
//	ensemble:tan+ewma@1        (alert on >= 1 member vote)
//
// An empty string parses to the zero Spec (resolved to the default by
// config normalization).
func ParseSpec(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return Spec{}, nil
	}
	var s Spec
	if rest, ok := strings.CutPrefix(text, KindEnsemble+":"); ok {
		s.Kind = KindEnsemble
		if members, q, ok := strings.Cut(rest, "@"); ok {
			n, err := strconv.Atoi(q)
			if err != nil {
				return Spec{}, fmt.Errorf("detector: bad quorum %q: %v", q, err)
			}
			s.Quorum = n
			rest = members
		}
		for _, m := range strings.Split(rest, "+") {
			if m = strings.TrimSpace(m); m != "" {
				s.Members = append(s.Members, m)
			}
		}
	} else {
		s.Kind = text
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
