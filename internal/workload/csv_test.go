package workload

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"prepare/internal/simclock"
)

// readCSV parses rows written by WriteCSV: the reader of the round trip
// below, strict enough that a malformed row fails instead of reading
// back as a different trace.
func readCSV(r io.Reader) ([]Point, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, nil
	}
	points := make([]Point, 0, len(records)-1)
	for i, rec := range records[1:] {
		if len(rec) != 2 {
			return nil, fmt.Errorf("workload: row %d has %d fields, want 2", i+2, len(rec))
		}
		sec, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: row %d time: %w", i+2, err)
		}
		rate, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: row %d rate: %w", i+2, err)
		}
		points = append(points, Point{Time: simclock.Time(sec), Rate: rate})
	}
	return points, nil
}

func TestSampleLength(t *testing.T) {
	pts := Sample(Constant{Value: 3}, 10)
	if len(pts) != 10 {
		t.Fatalf("Sample returned %d points, want 10", len(pts))
	}
	if pts[0].Time != 0 || pts[9].Time != 9 {
		t.Errorf("time bounds %v..%v, want 0..9", pts[0].Time, pts[9].Time)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g, err := NewNASATrace(DefaultNASAConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	pts := Sample(g, 50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip %d points, want %d", len(got), len(pts))
	}
	for i := range got {
		if got[i].Time != pts[i].Time {
			t.Errorf("point %d time %v, want %v", i, got[i].Time, pts[i].Time)
		}
		// 4 decimal places of precision survive the round trip.
		if diff := got[i].Rate - pts[i].Rate; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("point %d rate %g, want %g", i, got[i].Rate, pts[i].Rate)
		}
	}
}

func TestReadCSVMalformed(t *testing.T) {
	cases := map[string]string{
		"bad time":    "time_s,rate\nxx,1.0\n",
		"bad rate":    "time_s,rate\n5,notanumber\n",
		"wrong width": "time_s,rate\n5\n",
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := readCSV(strings.NewReader(data)); err == nil {
				t.Error("malformed csv should fail")
			}
		})
	}
}

func TestReadCSVEmpty(t *testing.T) {
	pts, err := readCSV(strings.NewReader(""))
	if err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if len(pts) != 0 {
		t.Errorf("got %d points from empty input", len(pts))
	}
}
