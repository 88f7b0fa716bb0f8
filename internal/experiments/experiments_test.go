package experiments

import (
	"math"
	"strings"
	"testing"
)

// quickRunner uses a small scale so the full figure set stays test-sized.
// The cache means the (workload, bound) pipelines run once per test binary.
var sharedRunner = NewRunner(Config{Seed: 42, Scale: 0.12})

func TestFig3(t *testing.T) {
	res := Fig3(Config{Seed: 42})
	if len(res.Hours) != 48 {
		t.Fatalf("expected 48 half-hour samples, got %d", len(res.Hours))
	}
	for i := range res.Hours {
		if res.Temperature[i] < 15 || res.Temperature[i] > 45 {
			t.Errorf("temperature[%d] = %v", i, res.Temperature[i])
		}
		if res.Precipitation[i] < 0 {
			t.Errorf("negative precipitation at %d", i)
		}
		if res.Wind[i] < 0 {
			t.Errorf("negative wind at %d", i)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Error("render header missing")
	}
}

func TestPipelineCacheReuse(t *testing.T) {
	a, err := sharedRunner.Pipeline(AQHI, 0.10, SmartFlux)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharedRunner.Pipeline(AQHI, 0.10, SmartFlux)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache must return the identical result object")
	}
}

func TestSyncLogShape(t *testing.T) {
	log, err := sharedRunner.Log(AQHI, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if log.Waves() == 0 || len(log.Steps) == 0 {
		t.Fatal("empty log")
	}
	if len(log.Impacts) != len(log.Labels) || len(log.Labels) != len(log.SimErrors) {
		t.Error("log series lengths differ")
	}
	for w := range log.Impacts {
		if len(log.Impacts[w]) != len(log.Steps) {
			t.Fatal("impact row width mismatch")
		}
	}
}

func TestFig7(t *testing.T) {
	res, err := Fig7(sharedRunner, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	// 6 LRB gated steps + 5 AQHI gated steps.
	if len(res.Steps) != 11 {
		t.Fatalf("got %d step panels, want 11", len(res.Steps))
	}
	for _, s := range res.Steps {
		if s.Pearson < -1 || s.Pearson > 1 {
			t.Errorf("%s/%s r = %v", s.Workload, s.Step, s.Pearson)
		}
		if len(s.Points) == 0 {
			t.Errorf("%s/%s has no points", s.Workload, s.Step)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Error("render header missing")
	}
}

func TestFig8(t *testing.T) {
	res, err := Fig8(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 6 { // 2 workloads × 3 bounds
		t.Fatalf("got %d curves", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Points) == 0 {
			t.Fatalf("curve %s/%v empty", c.Workload, c.Bound)
		}
		for _, p := range c.Points {
			for name, v := range map[string]float64{
				"accuracy": p.Accuracy, "precision": p.Precision, "recall": p.Recall,
			} {
				if v < 0 || v > 1 {
					t.Errorf("%s out of range: %v", name, v)
				}
			}
		}
		// Sizes must increase.
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].TrainingExamples <= c.Points[i-1].TrainingExamples {
				t.Error("training sizes must increase")
			}
		}
	}
}

func TestFig9And10(t *testing.T) {
	res, err := Fig9(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("got %d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Measured) == 0 || len(s.Measured) != len(s.Predicted) {
			t.Fatalf("%s/%v series lengths", s.Workload, s.Bound)
		}
		if s.Violations < 0 || s.Violations > len(s.Measured) {
			t.Errorf("violations %d", s.Violations)
		}
	}

	conf, err := Fig10(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conf.Series {
		for _, v := range c.Confidence {
			if v < 0 || v > 1 {
				t.Fatalf("confidence %v out of range", v)
			}
		}
	}
}

func TestFig12(t *testing.T) {
	res, err := Fig12(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Totals) != 6 {
		t.Fatalf("got %d totals", len(res.Totals))
	}
	for _, tot := range res.Totals {
		if tot.Predicted > tot.Sync {
			t.Errorf("%s/%v: predicted %d > sync %d", tot.Workload, tot.Bound, tot.Predicted, tot.Sync)
		}
		if tot.SavingsRatio < 0 || tot.SavingsRatio > 1 {
			t.Errorf("savings %v", tot.SavingsRatio)
		}
		if tot.Optimal > tot.Sync {
			t.Errorf("optimal %d > sync %d", tot.Optimal, tot.Sync)
		}
	}
	// Savings must grow with the bound for each workload.
	byLoad := map[Workload][]float64{}
	for _, tot := range res.Totals {
		byLoad[tot.Workload] = append(byLoad[tot.Workload], tot.SavingsRatio)
	}
	for load, savings := range byLoad {
		if savings[0] > savings[2] {
			t.Errorf("%s: savings not increasing with bound: %v", load, savings)
		}
	}
}

func TestConfigScaling(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.1}.withDefaults()
	if cfg.scaled(500) != 50 {
		t.Errorf("scaled(500) = %d", cfg.scaled(500))
	}
	if cfg.scaled(100) != 40 {
		t.Errorf("scaled floor: %d", cfg.scaled(100))
	}
	if (Config{}).withDefaults().Seed != 42 {
		t.Error("default seed")
	}
}

func TestClassifierSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: trains 7 classifiers per step")
	}
	res, err := ClassifierSelection(sharedRunner, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("got %d classifier rows", len(res.Rows))
	}
	// Rows sorted by mean AUC descending; AUCs within [0, 1].
	for i, row := range res.Rows {
		if row.MeanAUC < 0 || row.MeanAUC > 1 {
			t.Errorf("%s AUC %v", row.Classifier, row.MeanAUC)
		}
		if i > 0 && row.MeanAUC > res.Rows[i-1].MeanAUC {
			t.Error("rows must be sorted by mean AUC")
		}
	}
	// Random Forest must land in the top half of the ranking (§3.2).
	for i, row := range res.Rows {
		if row.Classifier == "random-forest" && i > 3 {
			t.Errorf("random forest ranked %d of %d", i+1, len(res.Rows))
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "classifier selection") {
		t.Error("render header missing")
	}
}

func TestFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs four naive-policy pipelines per workload")
	}
	res, err := Fig11(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 10 { // 2 workloads × (smartflux + 4 naive)
		t.Fatalf("got %d curves", len(res.Curves))
	}
	final := map[Workload]map[string]float64{LRB: {}, AQHI: {}}
	for i, c := range res.Curves {
		if want := Fig11Policies[i%len(Fig11Policies)]; c.Policy != want {
			t.Errorf("curve %d is named %q by its result, want %q", i, c.Policy, want)
		}
		if want := sharedRunner.cfg.applyWaves(c.Workload); len(c.Confidence) != want {
			t.Errorf("%s/%s: curve of %d waves, want the %d application waves", c.Workload, c.Policy, len(c.Confidence), want)
		}
		v := c.Confidence[len(c.Confidence)-1]
		if v < 0 || v > 1 {
			t.Errorf("%s/%s confidence %v", c.Workload, c.Policy, v)
		}
		final[c.Workload][c.Policy] = v
	}
	// One horizon: the reference instance is synchronous whatever the live
	// policy, so runs over the same waves log bit-identical reference series.
	for _, w := range []Workload{LRB, AQHI} {
		sf, err := sharedRunner.Pipeline(w, res.Bound, SmartFlux)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range Fig11Policies[1:] {
			p, err := sharedRunner.Pipeline(w, res.Bound, policy)
			if err != nil {
				t.Fatal(err)
			}
			if p.Session != nil || p.Test.Accepted {
				t.Errorf("%s/%s: a policy that does not learn reports a session", w, policy)
			}
			if len(p.Apply.RefImpacts) != len(sf.Apply.RefImpacts) || len(p.Apply.RefLabels) != len(sf.Apply.RefLabels) {
				t.Fatalf("%s/%s: reference series of %d/%d waves, smartflux has %d", w, policy,
					len(p.Apply.RefImpacts), len(p.Apply.RefLabels), len(sf.Apply.RefImpacts))
			}
			for wave := range sf.Apply.RefImpacts {
				for i, want := range sf.Apply.RefImpacts[wave] {
					if got := p.Apply.RefImpacts[wave][i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s: reference impact of application wave %d step %d is %v, smartflux saw %v", w, policy, wave, i, got, want)
					}
					if got, want := p.Apply.RefLabels[wave][i], sf.Apply.RefLabels[wave][i]; got != want {
						t.Fatalf("%s/%s: reference label of application wave %d step %d is %d, smartflux saw %d", w, policy, wave, i, got, want)
					}
				}
			}
		}
	}
	// What the shared horizon says (EXPERIMENTS.md): the curve is the report
	// step's local error, and a fixed cadence runs every gated step in lockstep,
	// so that step's inputs never move without it — once warm, seqN sits at
	// exactly 1 whatever N, which a cold start hid behind its first waves. Only
	// the policy that skips steps independently can trail SmartFlux, and does.
	for load, policies := range final {
		for _, seq := range []string{"seq2", "seq3", "seq5"} {
			if policies[seq] != 1 {
				t.Errorf("%s: %s ends at %.4f, want exactly 1", load, seq, policies[seq])
			}
		}
		if policies["random"] > policies[SmartFlux] {
			t.Errorf("%s: random (%.3f) beats smartflux (%.3f)", load, policies["random"], policies[SmartFlux])
		}
	}
	// The whole-pipeline measure is what a cadence pays in: it falls with N.
	for i := 0; i < len(res.Curves); i += len(Fig11Policies) {
		seq2, seq5 := res.Curves[i+2], res.Curves[i+4]
		if seq5.EndToEnd > seq2.EndToEnd || seq5.Savings <= seq2.Savings {
			t.Errorf("%s: seq5 holds %.3f end to end saving %.3f, seq2 %.3f saving %.3f", seq2.Workload,
				seq5.EndToEnd, seq5.Savings, seq2.EndToEnd, seq2.Savings)
		}
	}
}

func TestOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: times full waves")
	}
	res, err := Overhead(sharedRunner, AQHI)
	if err != nil {
		t.Fatal(err)
	}
	if res.WaveExecution <= 0 {
		t.Error("wave execution time must be positive")
	}
	if res.ModelBuild <= 0 {
		t.Error("model build time must be positive")
	}
	if res.Prediction <= 0 {
		t.Error("prediction time must be positive")
	}
	// The paper's headline: per-task overhead ≈ 0%; we allow a generous
	// margin since the simulated steps are far cheaper than real jobs.
	if res.OverheadRatio > 3 {
		t.Errorf("overhead ratio %.2f implausibly high", res.OverheadRatio)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "overhead") {
		t.Error("render header missing")
	}
}
