package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"prepare/internal/simclock"
)

// Point is one (time, rate) observation of a workload trace.
type Point struct {
	Time simclock.Time
	Rate float64
}

// Sample evaluates the generator once per second over [0, horizon).
func Sample(g Generator, horizon int64) []Point {
	points := make([]Point, 0, horizon)
	for t := int64(0); t < horizon; t++ {
		st := simclock.Time(t)
		points = append(points, Point{Time: st, Rate: g.Rate(st)})
	}
	return points
}

// WriteCSV writes points as "time_s,rate" rows with a header.
func WriteCSV(w io.Writer, points []Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "rate"}); err != nil {
		return fmt.Errorf("workload: write header: %w", err)
	}
	for _, p := range points {
		row := []string{
			strconv.FormatInt(p.Time.Seconds(), 10),
			strconv.FormatFloat(p.Rate, 'f', 4, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("workload: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
