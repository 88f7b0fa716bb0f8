package experiments

import (
	"fmt"
	"io"
)

// PolicyCurve is one Figure 11 confidence curve, with what it cost — the
// fraction of gated executions the policy saved over the horizon — and the
// compliance of the same waves on the whole-pipeline measure: the figure's is
// the report step's local error (§2.2), which a lockstep cadence keeps at zero
// by never letting the step's inputs move without it.
type PolicyCurve struct {
	Workload   Workload
	Policy     string
	Confidence []float64
	Savings    float64
	EndToEnd   float64
}

// Fig11Result regenerates Figure 11: SmartFlux vs naive triggering policies
// (random, seq2, seq3, seq5) at a 5% error bound, over one application horizon.
type Fig11Result struct {
	Bound  float64
	Curves []PolicyCurve
}

// Fig11 reads every curve from the application phase of a cached pipeline
// run: all policies run the same training waves — synchronously, so they reach
// the application horizon on the same store — and then the same application
// waves. Runner.Prewarm is what runs them concurrently.
func Fig11(r *Runner) (*Fig11Result, error) {
	const bound = 0.05
	result := &Fig11Result{Bound: bound}
	for _, w := range []Workload{LRB, AQHI} {
		for _, policy := range Fig11Policies {
			res, err := r.Pipeline(w, bound, policy)
			if err != nil {
				return nil, err
			}
			report := res.Apply.Reports[workloadSpecs[w].report]
			within := 0
			for _, e := range report.EndToEnd {
				if e <= report.MaxError {
					within++
				}
			}
			result.Curves = append(result.Curves, PolicyCurve{
				Workload:   w,
				Policy:     res.Apply.Policy,
				Confidence: report.Confidence(),
				Savings:    res.Apply.SavingsRatio(),
				EndToEnd:   float64(within) / float64(len(report.EndToEnd)),
			})
		}
	}
	return result, nil
}

// Render writes each policy's final confidence, savings and end-to-end compliance.
func (r *Fig11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 11: policy comparison at a %.0f%% bound\n", r.Bound*100)
	fmt.Fprintf(w, "%-6s %-12s %12s %8s %12s\n", "load", "policy", "final conf", "saved", "end-to-end")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "%-6s %-12s %12.4f %7.1f%% %12.4f\n",
			c.Workload, c.Policy, c.Confidence[len(c.Confidence)-1], c.Savings*100, c.EndToEnd)
	}
}
