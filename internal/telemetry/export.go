package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteJSON serializes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// promName converts a dotted metric name into a Prometheus-safe name
// with the prepare_ prefix: "control.alerts.confirmed" becomes
// "prepare_control_alerts_confirmed".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("prepare_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus serializes the snapshot's counters, gauges and
// histograms in the Prometheus text exposition format (events are not
// exported; use /trace or WriteJSON for those).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, name := range s.CounterNames() {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	gnames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n%s_max %g\n",
			pn, pn, s.Gauges[name].Value, pn, s.Gauges[name].Max); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		hs := s.Histograms[name]
		pn := promName(name) + "_seconds"
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		cum := uint64(0)
		for i, c := range hs.Counts {
			cum += c
			le := "+Inf"
			if i < len(hs.Bounds) {
				le = strconv.FormatFloat(hs.Bounds[i], 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, hs.Sum, pn, hs.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders a human-readable end-of-run digest: every
// counter, gauge and histogram (count, mean, p50, p99) plus the tail of
// the event trace.
func (s *Snapshot) WriteSummary(w io.Writer) error {
	if s == nil {
		_, err := fmt.Fprintln(w, "telemetry: disabled")
		return err
	}
	if _, err := fmt.Fprintln(w, "== telemetry summary =="); err != nil {
		return err
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range s.CounterNames() {
			fmt.Fprintf(w, "  %-42s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		gnames := make([]string, 0, len(s.Gauges))
		for name := range s.Gauges {
			gnames = append(gnames, name)
		}
		sort.Strings(gnames)
		fmt.Fprintln(w, "gauges (last / max):")
		for _, name := range gnames {
			g := s.Gauges[name]
			fmt.Fprintf(w, "  %-42s %.4g / %.4g\n", name, g.Value, g.Max)
		}
	}
	if len(s.Histograms) > 0 {
		hnames := make([]string, 0, len(s.Histograms))
		for name := range s.Histograms {
			hnames = append(hnames, name)
		}
		sort.Strings(hnames)
		fmt.Fprintln(w, "histograms (count / mean / p50 / p99):")
		for _, name := range hnames {
			hs := s.Histograms[name]
			// Histograms are in seconds unless their name says
			// milliseconds.
			scale := 1.0
			if strings.HasSuffix(name, "_ms") {
				scale = 1e-3
			}
			fmt.Fprintf(w, "  %-42s %d / %s / %s / %s\n", name, hs.Count,
				fmtSeconds(hs.Mean()*scale), fmtSeconds(hs.Quantile(0.5)*scale), fmtSeconds(hs.Quantile(0.99)*scale))
		}
	}
	const tail = 12
	fmt.Fprintf(w, "events: %d retained, %d dropped\n", len(s.Events), s.DroppedEvents)
	start := len(s.Events) - tail
	if start < 0 {
		start = 0
	}
	for _, e := range s.Events[start:] {
		line := fmt.Sprintf("  t=%-6d %-10s %-8s %-19s %s", e.SimTime, e.VM, e.Stage, e.Kind, e.Detail)
		for _, f := range e.Fields {
			line += fmt.Sprintf(" %s=%.3g", f.Key, f.Value)
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	return nil
}

// fmtSeconds renders a duration in seconds with a readable unit.
func fmtSeconds(v float64) string {
	switch {
	case v <= 0:
		return "0"
	case v < 1e-3:
		return fmt.Sprintf("%.3gµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.3gms", v*1e3)
	default:
		return fmt.Sprintf("%.3gs", v)
	}
}
