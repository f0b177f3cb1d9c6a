package predict

import "prepare/internal/detector"

// AlarmFilter is the paper's k-of-W false alarm filter
// (detector.AlarmFilter), for offline scoring and the facade.
type AlarmFilter = detector.AlarmFilter

// DefaultAlarmK and DefaultAlarmW are the paper's filter settings.
const (
	DefaultAlarmK = detector.DefaultAlarmK
	DefaultAlarmW = detector.DefaultAlarmW
)

// NewAlarmFilter builds a K-of-W filter (1 ≤ k ≤ w ≤ 64).
func NewAlarmFilter(k, w int) (*AlarmFilter, error) {
	f, err := detector.NewAlarmFilter(k, w)
	if err != nil {
		return nil, err
	}
	return &f, nil
}
