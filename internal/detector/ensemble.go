package detector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"prepare/internal/metrics"
	"prepare/internal/telemetry"
)

// Member is one voting participant in an Ensemble.
type Member struct {
	// Name labels the member in telemetry and snapshots; defaults to
	// "<index>:<kind>" so duplicate kinds stay distinguishable.
	Name string
	// Weight is the member's vote weight (default 1).
	Weight float64
	// Detector is the member itself.
	Detector Detector
}

// memberTelemetry holds one member's counters.
type memberTelemetry struct {
	votes  *telemetry.Counter // abnormal window votes cast
	errors *telemetry.Counter // scoring errors swallowed by the vote
}

// Ensemble combines member detectors by weighted vote: a window is
// abnormal when the abnormal members' weights reach the quorum. The
// combined score is the abnormal vote share in [0, 1], so alert logs
// stay comparable across member sets; attribution merges the abnormal
// members' (scale-normalized) strengths.
type Ensemble struct {
	members []Member
	quorum  float64 // weight required to alert
	total   float64 // total weight

	tel    []memberTelemetry
	alerts *telemetry.Counter

	// cached by Score for Verdict.
	lastDecs  []Decision
	lastErrs  []bool
	lastDec   Decision
	lastValid bool
}

// NewEnsemble builds an ensemble from members. quorum is the number of
// (weighted) votes required to alert; 0 means strict majority of the
// total weight. Member weights default to 1.
func NewEnsemble(members []Member, quorum float64) (*Ensemble, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("detector: ensemble needs at least 2 members, got %d", len(members))
	}
	e := &Ensemble{
		members:  make([]Member, len(members)),
		tel:      make([]memberTelemetry, len(members)),
		lastDecs: make([]Decision, len(members)),
		lastErrs: make([]bool, len(members)),
	}
	for i, m := range members {
		if m.Detector == nil {
			return nil, fmt.Errorf("detector: ensemble member %d is nil", i)
		}
		if m.Weight == 0 {
			m.Weight = 1
		}
		if m.Weight < 0 {
			return nil, fmt.Errorf("detector: ensemble member %d has negative weight", i)
		}
		if m.Name == "" {
			m.Name = fmt.Sprintf("%d:%s", i, m.Detector.Kind())
		}
		e.members[i] = m
		e.total += m.Weight
	}
	if quorum < 0 || quorum > e.total {
		return nil, fmt.Errorf("detector: quorum %v out of range (total weight %v)", quorum, e.total)
	}
	if quorum == 0 {
		// Strict majority: more than half the total weight.
		quorum = e.total/2 + 0.5
		if quorum > e.total {
			quorum = e.total
		}
	}
	e.quorum = quorum
	return e, nil
}

// SetTelemetry wires per-member vote counters into reg under
// detector.ensemble.<scope>. A nil registry disables recording.
func (e *Ensemble) SetTelemetry(reg *telemetry.Registry, scope string) {
	if reg == nil {
		e.alerts = nil
		for i := range e.tel {
			e.tel[i] = memberTelemetry{}
		}
		return
	}
	prefix := "detector.ensemble"
	if scope != "" {
		prefix += "." + scope
	}
	e.alerts = reg.Counter(prefix + ".alerts")
	for i, m := range e.members {
		e.tel[i] = memberTelemetry{
			votes:  reg.Counter(prefix + ".member." + m.Name + ".votes"),
			errors: reg.Counter(prefix + ".member." + m.Name + ".errors"),
		}
	}
}

// Members exposes the member list (for stats reporting).
func (e *Ensemble) Members() []Member { return e.members }

// Quorum exposes the resolved vote weight required to alert.
func (e *Ensemble) Quorum() float64 { return e.quorum }

// Kind implements Detector.
func (e *Ensemble) Kind() string { return KindEnsemble }

// Train implements Detector: every member trains on the same history.
func (e *Ensemble) Train(rows [][]float64, labels []metrics.Label) error {
	for i, m := range e.members {
		if err := m.Detector.Train(rows, labels); err != nil {
			return fmt.Errorf("detector: ensemble member %s: %w", e.members[i].Name, err)
		}
	}
	e.lastValid = false
	return nil
}

// Trained implements Detector.
func (e *Ensemble) Trained() bool {
	for _, m := range e.members {
		if !m.Detector.Trained() {
			return false
		}
	}
	return len(e.members) > 0
}

// Update implements Detector.
func (e *Ensemble) Update(row []float64, label metrics.Label) error {
	for _, m := range e.members {
		if err := m.Detector.Update(row, label); err != nil {
			return fmt.Errorf("detector: ensemble member %s: %w", m.Name, err)
		}
	}
	e.lastValid = false
	return nil
}

// Observe implements Detector.
func (e *Ensemble) Observe(row []float64) error {
	for _, m := range e.members {
		if err := m.Detector.Observe(row); err != nil {
			return fmt.Errorf("detector: ensemble member %s: %w", m.Name, err)
		}
	}
	e.lastValid = false
	return nil
}

// Retrain implements Detector: the members retrain in order, and the
// first that cannot fails the ensemble's retrain (the members before it
// keep their refit).
func (e *Ensemble) Retrain() error {
	for _, m := range e.members {
		if err := m.Detector.Retrain(); err != nil {
			return fmt.Errorf("detector: ensemble member %s: %w", m.Name, err)
		}
	}
	return nil
}

// Score implements Detector: every member scores the window, abnormal
// votes are weighed against the quorum. A member scoring error counts
// as a normal vote (and a telemetry increment) rather than failing the
// whole ensemble tick.
func (e *Ensemble) Score(lookaheadS int64) (Decision, error) {
	var votes float64
	lead := 0
	for i, m := range e.members {
		dec, err := m.Detector.Score(lookaheadS)
		if err != nil {
			e.lastDecs[i] = Decision{}
			e.lastErrs[i] = true
			e.tel[i].errors.Inc()
			continue
		}
		e.lastDecs[i] = dec
		e.lastErrs[i] = false
		if dec.Abnormal {
			votes += m.Weight
			e.tel[i].votes.Inc()
			if dec.LeadSteps > lead {
				lead = dec.LeadSteps
			}
		}
	}
	abnormal := votes >= e.quorum
	if abnormal {
		e.alerts.Inc()
	}
	e.lastDec = Decision{Abnormal: abnormal, Score: votes / e.total, LeadSteps: lead}
	e.lastValid = true
	return e.lastDec, nil
}

// Verdict implements Detector: merges the abnormal voters' attribution
// (each member's strengths normalized to unit mass, then weighted by
// its vote weight, so members with incomparable score scales combine
// on equal footing). When no member voted abnormal — possible when a
// k-of-W filter confirms on a tick whose own vote fell short — every
// scoring member contributes.
func (e *Ensemble) Verdict() (Verdict, error) {
	if !e.lastValid {
		return Verdict{}, errors.New("detector: ensemble verdict without a preceding score")
	}
	contributors := make([]int, 0, len(e.members))
	for i := range e.members {
		if !e.lastErrs[i] && e.lastDecs[i].Abnormal {
			contributors = append(contributors, i)
		}
	}
	if len(contributors) == 0 {
		for i := range e.members {
			if !e.lastErrs[i] {
				contributors = append(contributors, i)
			}
		}
	}
	merged := map[int]float64{}
	for _, i := range contributors {
		v, err := e.members[i].Detector.Verdict()
		if err != nil {
			continue
		}
		var mass float64
		for _, s := range v.Strengths {
			if s.L > 0 {
				mass += s.L
			}
		}
		if mass == 0 {
			continue
		}
		for _, s := range v.Strengths {
			if s.L > 0 {
				merged[s.Attribute] += e.members[i].Weight * s.L / mass
			}
		}
	}
	return Verdict{
		Abnormal:  e.lastDec.Abnormal,
		Score:     e.lastDec.Score,
		LeadSteps: e.lastDec.LeadSteps,
		Strengths: sortMerged(merged),
	}, nil
}

// Current implements Detector: the reactive-path vote over the sample
// itself.
func (e *Ensemble) Current(row []float64) (Verdict, error) {
	var votes float64
	verdicts := make([]Verdict, len(e.members))
	errs := make([]bool, len(e.members))
	for i, m := range e.members {
		v, err := m.Detector.Current(row)
		if err != nil {
			errs[i] = true
			e.tel[i].errors.Inc()
			continue
		}
		verdicts[i] = v
		if v.Abnormal {
			votes += m.Weight
			e.tel[i].votes.Inc()
		}
	}
	abnormal := votes >= e.quorum
	merged := map[int]float64{}
	for i, m := range e.members {
		if errs[i] || (!verdicts[i].Abnormal && abnormal) {
			continue
		}
		var mass float64
		for _, s := range verdicts[i].Strengths {
			if s.L > 0 {
				mass += s.L
			}
		}
		if mass == 0 {
			continue
		}
		for _, s := range verdicts[i].Strengths {
			if s.L > 0 {
				merged[s.Attribute] += m.Weight * s.L / mass
			}
		}
	}
	return Verdict{
		Abnormal:  abnormal,
		Score:     votes / e.total,
		Strengths: sortMerged(merged),
	}, nil
}

// sortMerged ranks merged attribution weights deterministically.
func sortMerged(merged map[int]float64) []Strength {
	out := make([]Strength, 0, len(merged))
	for attr, l := range merged {
		out = append(out, Strength{Attribute: attr, L: l})
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].L != out[b].L {
			return out[a].L > out[b].L
		}
		return out[a].Attribute < out[b].Attribute
	})
	return out
}

// ensembleSnapshot is the versioned JSON form of an ensemble: member
// snapshots nest as raw JSON under their kinds so the loader can
// dispatch without this package importing the model packages.
type ensembleSnapshot struct {
	Version int              `json:"version"`
	Quorum  float64          `json:"quorum"`
	Members []memberSnapshot `json:"members"`
}

type memberSnapshot struct {
	Name   string          `json:"name"`
	Kind   string          `json:"kind"`
	Weight float64         `json:"weight"`
	Data   json.RawMessage `json:"data"`
}

// Save implements Detector.
func (e *Ensemble) Save(w io.Writer) error {
	snap := ensembleSnapshot{Version: 1, Quorum: e.quorum, Members: make([]memberSnapshot, len(e.members))}
	for i, m := range e.members {
		var buf bytes.Buffer
		if err := m.Detector.Save(&buf); err != nil {
			return fmt.Errorf("detector: save ensemble member %s: %w", m.Name, err)
		}
		snap.Members[i] = memberSnapshot{Name: m.Name, Kind: m.Detector.Kind(), Weight: m.Weight, Data: json.RawMessage(buf.Bytes())}
	}
	return json.NewEncoder(w).Encode(&snap)
}

// LoadEnsemble restores an ensemble saved by Save. loadMember restores
// one member snapshot by kind — injected by the caller so model-backed
// kinds (tan, kmeans) can come from internal/predict without a
// dependency cycle; EWMA/ZRobust members are handled here when
// loadMember returns ErrUnknownKind.
func LoadEnsemble(r io.Reader, loadMember func(kind string, data []byte) (Detector, error)) (*Ensemble, error) {
	var snap ensembleSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("detector: decode ensemble snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("detector: unsupported ensemble snapshot version %d", snap.Version)
	}
	members := make([]Member, len(snap.Members))
	for i, ms := range snap.Members {
		var (
			d   Detector
			err error
		)
		if loadMember != nil {
			d, err = loadMember(ms.Kind, ms.Data)
		} else {
			err = ErrUnknownKind
		}
		if errors.Is(err, ErrUnknownKind) {
			d, err = loadLocal(ms.Kind, ms.Data)
		}
		if err != nil {
			return nil, fmt.Errorf("detector: load ensemble member %s: %w", ms.Name, err)
		}
		members[i] = Member{Name: ms.Name, Weight: ms.Weight, Detector: d}
	}
	return NewEnsemble(members, snap.Quorum)
}

// ErrUnknownKind signals a member loader does not handle a kind, so
// LoadEnsemble falls back to this package's own detectors.
var ErrUnknownKind = errors.New("detector: unknown kind")

// loadLocal restores the kinds implemented in this package.
func loadLocal(kind string, data []byte) (Detector, error) {
	switch kind {
	case KindEWMA:
		return LoadEWMA(bytes.NewReader(data))
	case KindZRobust:
		return LoadZRobust(bytes.NewReader(data))
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
}
