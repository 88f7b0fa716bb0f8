package experiments

import (
	"fmt"
	"io"

	"smartflux/internal/stats"
	"smartflux/internal/workflow"
)

// ErrorSeries is the Figure 9 panel of one (workload, bound) pair: per-wave
// measured and predicted errors of the workflow's last gated step, plus the
// prediction deviation.
type ErrorSeries struct {
	Workload  Workload
	Step      workflow.StepID
	Bound     float64
	Measured  []float64
	Predicted []float64
	// Deviation is Predicted - Measured per wave.
	Deviation []float64
	// Violations counts waves whose measured error exceeded the bound.
	Violations int
}

// Fig9Result regenerates Figure 9 (and its prediction-deviation panels).
type Fig9Result struct {
	Series []ErrorSeries
}

// Fig9 extracts the measured/predicted error series from the application
// phase of each (workload, bound) pipeline run.
func Fig9(r *Runner) (*Fig9Result, error) {
	result := &Fig9Result{}
	for _, w := range []Workload{LRB, AQHI} {
		for _, bound := range Bounds {
			res, err := r.Pipeline(w, bound, SmartFlux)
			if err != nil {
				return nil, err
			}
			step := workloadSpecs[w].report
			report, ok := res.Apply.Reports[step]
			if !ok {
				return nil, fmt.Errorf("fig9: no report for %s/%s", w, step)
			}
			result.Series = append(result.Series, ErrorSeries{
				Workload:   w,
				Step:       step,
				Bound:      bound,
				Measured:   report.Measured,
				Predicted:  report.Predicted,
				Deviation:  report.Deviation(),
				Violations: report.ViolationCount(),
			})
		}
	}
	return result, nil
}

// Render writes summary statistics of each panel (the full series are
// available programmatically).
func (r *Fig9Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: measured vs predicted error of the output step")
	fmt.Fprintf(w, "%-6s %6s %10s %10s %10s %10s %11s\n",
		"load", "bound", "waves", "mean meas", "max meas", "max dev", "violations")
	for _, s := range r.Series {
		maxMeas, _ := stats.Max(s.Measured)
		maxDev, _ := stats.Max(absSlice(s.Deviation))
		fmt.Fprintf(w, "%-6s %5.0f%% %10d %10.4f %10.4f %10.4f %11d\n",
			s.Workload, s.Bound*100, len(s.Measured),
			stats.Mean(s.Measured), maxMeas, maxDev, s.Violations)
	}
}

func absSlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0 {
			x = -x
		}
		out[i] = x
	}
	return out
}

// ConfidenceSeries is one Figure 10 curve: the normalized cumulative
// fraction of waves in which the bound was respected.
type ConfidenceSeries struct {
	Workload   Workload
	Bound      float64
	Confidence []float64
}

// Fig10Result regenerates Figure 10.
type Fig10Result struct {
	Series []ConfidenceSeries
}

// Fig10 derives bound-compliance confidence curves from the same runs as
// Figure 9.
func Fig10(r *Runner) (*Fig10Result, error) {
	fig9, err := Fig9(r)
	if err != nil {
		return nil, err
	}
	result := &Fig10Result{}
	for _, s := range fig9.Series {
		ok := make([]float64, len(s.Measured))
		for i, m := range s.Measured {
			if m <= s.Bound {
				ok[i] = 1
			}
		}
		result.Series = append(result.Series, ConfidenceSeries{
			Workload:   s.Workload,
			Bound:      s.Bound,
			Confidence: stats.NormalizedCumulative(ok),
		})
	}
	return result, nil
}

// Render writes the final confidence per curve plus a few intermediate
// points.
func (r *Fig10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: confidence in respecting error bounds")
	fmt.Fprintf(w, "%-6s %6s %10s %12s %12s\n",
		"load", "bound", "waves", "conf@50%", "final conf")
	for _, s := range r.Series {
		half := s.Confidence[len(s.Confidence)/2]
		final := s.Confidence[len(s.Confidence)-1]
		fmt.Fprintf(w, "%-6s %5.0f%% %10d %12.4f %12.4f\n",
			s.Workload, s.Bound*100, len(s.Confidence), half, final)
	}
}
