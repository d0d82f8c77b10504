package experiments

import (
	"strings"
	"testing"
)

// The experiment tests assert the paper's comparative SHAPE on quick-scale
// data: who wins, rough factors, crossovers. Absolute values are asserted
// loosely; `go run ./cmd/lightor-bench` prints the full-scale numbers.

func TestFigure2aShape(t *testing.T) {
	r, err := Figure2a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The chat peak must lag the highlight start by a positive delay in
	// the vicinity of the simulated 25 s reaction time.
	if r.Delay < 5 || r.Delay > 45 {
		t.Errorf("delay = %.1f s, want within (5, 45)", r.Delay)
	}
	if r.MedianDelay < 10 || r.MedianDelay > 40 {
		t.Errorf("median delay = %.1f s, want within (10, 40)", r.MedianDelay)
	}
	if len(r.CurveX) == 0 {
		t.Error("no curve samples")
	}
	if !strings.Contains(r.Render(), "Figure 2(a)") {
		t.Error("render missing title")
	}
}

func TestFigure2bShape(t *testing.T) {
	r, err := Figure2b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Highlights == 0 || r.NonHighlights == 0 {
		t.Fatal("need both classes")
	}
	// Highlight windows: more messages, shorter messages, higher
	// similarity (Figure 2b's separation).
	if r.HighlightMean["msg num"] <= r.NonHighlightMean["msg num"] {
		t.Error("highlight windows should have more messages")
	}
	if r.HighlightMean["msg len"] >= r.NonHighlightMean["msg len"] {
		t.Error("highlight windows should have shorter messages")
	}
	if r.HighlightMean["msg sim"] <= r.NonHighlightMean["msg sim"] {
		t.Error("highlight windows should be more similar")
	}
	if !strings.Contains(r.Render(), "Figure 2(b)") {
		t.Error("render missing title")
	}
}

func TestFigure3Shape(t *testing.T) {
	r, err := Figure3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Type I is diffuse, Type II clustered: the paper's defining contrast.
	if r.TypeIStddev <= r.TypeIIStddev {
		t.Errorf("Type I stddev (%.1f) should exceed Type II (%.1f)",
			r.TypeIStddev, r.TypeIIStddev)
	}
	// Type II median start offset sits a few seconds after the true start.
	if r.TypeIIMedian < 0 || r.TypeIIMedian > 15 {
		t.Errorf("Type II median = %.1f, want ≈5-10", r.TypeIIMedian)
	}
	if !strings.Contains(r.Render(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFigure6aShape(t *testing.T) {
	r, err := Figure6a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 3 {
		t.Fatalf("curves = %d, want 3", len(r.Curves))
	}
	full := r.Curves[2]
	numOnly := r.Curves[0]
	// The full model must dominate msg-num-only at large k (the paper's
	// headline claim for the feature design).
	kLast := full.Len() - 1
	if full.Y[kLast] < numOnly.Y[kLast] {
		t.Errorf("full model P@%d (%.3f) below num-only (%.3f)",
			int(full.X[kLast]), full.Y[kLast], numOnly.Y[kLast])
	}
	// And the full model should be usable: ≥0.6 at k=10 even quick-scale.
	if full.Y[kLast] < 0.6 {
		t.Errorf("full model P@10 = %.3f, want >= 0.6", full.Y[kLast])
	}
	if !strings.Contains(r.Render(), "Figure 6(a)") {
		t.Error("render missing title")
	}
}

func TestFigure6bShape(t *testing.T) {
	r, err := Figure6b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Stability: even one training video must already be competitive
	// (paper: 0.82 with a single video).
	if r.Curve.Y[0] < 0.55 {
		t.Errorf("P@10 with 1 training video = %.3f, want >= 0.55", r.Curve.Y[0])
	}
	for i, y := range r.Curve.Y {
		if y < 0.5 {
			t.Errorf("P@10 at n=%d dipped to %.3f", i+1, y)
		}
	}
}

func TestFigure7aShape(t *testing.T) {
	r, err := Figure7a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// LIGHTOR must beat Toretter decisively (paper: ~3x), and Ideal must
	// upper-bound LIGHTOR (within noise).
	kLast := r.Lightor.Len() - 1
	if r.Lightor.Y[kLast] < 2*r.Toretter.Y[kLast] {
		t.Errorf("Lightor (%.3f) should be >= 2x Toretter (%.3f)",
			r.Lightor.Y[kLast], r.Toretter.Y[kLast])
	}
	if r.Lightor.Y[kLast] > r.Ideal.Y[kLast]+0.15 {
		t.Errorf("Lightor (%.3f) exceeds Ideal (%.3f) by too much",
			r.Lightor.Y[kLast], r.Ideal.Y[kLast])
	}
}

func TestFigure7bShape(t *testing.T) {
	r, err := Figure7b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The learned constant stays in a tight positive band (paper: 23-27 s).
	for i, c := range r.Curve.Y {
		if c < 15 || c > 35 {
			t.Errorf("c at n=%d is %.0f, want within [15, 35]", i+1, c)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	r, err := Figure8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	last := r.LightorStart.Len() - 1
	// The extractor improves (or holds) over iterations...
	if r.LightorStart.Y[last] < r.LightorStart.Y[0]-0.05 {
		t.Errorf("start precision degraded over iterations: %.3f -> %.3f",
			r.LightorStart.Y[0], r.LightorStart.Y[last])
	}
	// ...and beats both non-iterative baselines: never below them on
	// start, strictly better on boundary (end) quality, where the paper's
	// margin is widest at quick scale.
	if r.LightorStart.Y[last] < r.SocialSkipStart.Y[last] ||
		r.LightorStart.Y[last] < r.MoocerStart.Y[last] {
		t.Errorf("Lightor start (%.3f) below a baseline (SocialSkip %.3f, MOOCer %.3f)",
			r.LightorStart.Y[last], r.SocialSkipStart.Y[last], r.MoocerStart.Y[last])
	}
	if r.LightorEnd.Y[last] <= r.SocialSkipEnd.Y[last] {
		t.Errorf("Lightor end (%.3f) should beat SocialSkip (%.3f)",
			r.LightorEnd.Y[last], r.SocialSkipEnd.Y[last])
	}
	if r.LightorEnd.Y[last] <= r.MoocerEnd.Y[last] {
		t.Errorf("Lightor end (%.3f) should beat MOOCer (%.3f)",
			r.LightorEnd.Y[last], r.MoocerEnd.Y[last])
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := Figure9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.FractionAbove500Chats < 0.7 {
		t.Errorf("fraction above 500 chats/h = %.2f, want > 0.7", r.FractionAbove500Chats)
	}
	if r.FractionAbove100Viewers < 0.999 {
		t.Errorf("fraction above 100 viewers = %.2f, want 1.0", r.FractionAbove100Viewers)
	}
}

func TestFigure10Shape(t *testing.T) {
	r, err := Figure10(Quick())
	if err != nil {
		t.Fatal(err)
	}
	kLast := r.Lightor1.Len() - 1
	// LIGHTOR with one labeled video beats Chat-LSTM with one.
	if r.Lightor1.Y[kLast] <= r.ChatLSTM1.Y[kLast] {
		t.Errorf("Lightor@1 (%.3f) should beat Chat-LSTM@1 (%.3f)",
			r.Lightor1.Y[kLast], r.ChatLSTM1.Y[kLast])
	}
	// And still beats Chat-LSTM with the full training set.
	if r.Lightor1.Y[kLast] <= r.ChatLSTMAll.Y[kLast] {
		t.Errorf("Lightor@1 (%.3f) should beat Chat-LSTM@all (%.3f)",
			r.Lightor1.Y[kLast], r.ChatLSTMAll.Y[kLast])
	}
}

func TestFigure11Shape(t *testing.T) {
	r, err := Figure11(Quick())
	if err != nil {
		t.Fatal(err)
	}
	kLast := r.LightorLoL.Len() - 1
	// LIGHTOR transfers: Dota2 precision within 0.25 of LoL precision.
	drop := r.LightorLoL.Y[kLast] - r.LightorDota.Y[kLast]
	if drop > 0.25 {
		t.Errorf("Lightor cross-domain drop = %.3f, want <= 0.25", drop)
	}
	// Chat-LSTM transfers worse than LIGHTOR does.
	lstmDrop := r.ChatLSTMLoL.Y[kLast] - r.ChatLSTMDota.Y[kLast]
	if r.LightorDota.Y[kLast] <= r.ChatLSTMDota.Y[kLast] {
		t.Errorf("Lightor on Dota2 (%.3f) should beat Chat-LSTM on Dota2 (%.3f)",
			r.LightorDota.Y[kLast], r.ChatLSTMDota.Y[kLast])
	}
	_ = lstmDrop
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// LIGHTOR wins on both precisions and trains much faster.
	if r.LightorStartP <= r.JointStartP {
		t.Errorf("Lightor start (%.3f) should beat Joint-LSTM (%.3f)",
			r.LightorStartP, r.JointStartP)
	}
	if r.LightorStartP < 0.6 {
		t.Errorf("Lightor end-to-end start precision = %.3f, want >= 0.6", r.LightorStartP)
	}
	// At quick scale the Joint-LSTM is tiny, so the speedup bound is loose;
	// Default() scale shows the orders-of-magnitude gap (go run ./cmd/lightor-bench -run table1).
	if r.SpeedupFactor() < 3 {
		t.Errorf("training speedup = %.0fx, want >= 3x", r.SpeedupFactor())
	}
	if !strings.Contains(r.Render(), "Table I") {
		t.Error("render missing title")
	}
}

func TestAblationsShape(t *testing.T) {
	r, err := Ablations(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	full, ok := byName["full"]
	if !ok {
		t.Fatal("missing full row")
	}
	noAdj, ok := byName["no adjustment (c=0)"]
	if !ok {
		t.Fatal("missing no-adjustment row")
	}
	// Killing the adjustment reproduces the naive implementation's failure:
	// the red dots sit on the delayed chat peaks, so PRE-refinement dot
	// precision must collapse. (End-to-end precision can recover — the
	// extractor walks Type I dots back — which is itself a finding the
	// ablation table surfaces.)
	if noAdj.DotStartP >= full.DotStartP-0.1 {
		t.Errorf("no-adjustment dot precision (%.3f) should collapse vs full (%.3f)",
			noAdj.DotStartP, full.DotStartP)
	}
	// Every ablation stays within [0, 1].
	for _, row := range r.Rows {
		if row.StartP < 0 || row.StartP > 1 || row.EndP < 0 || row.EndP > 1 {
			t.Errorf("row %q out of range: %+v", row.Name, row)
		}
	}
	if !strings.Contains(r.Render(), "Ablations") {
		t.Error("render missing title")
	}
}

func TestClassifierAccuracyShape(t *testing.T) {
	r, err := ClassifierAccuracy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ≈80%. Either classifier should comfortably beat coin-flipping.
	if r.RuleAccuracy < 0.65 {
		t.Errorf("rule accuracy = %.3f, want >= 0.65", r.RuleAccuracy)
	}
	if r.LearnedAccuracy < 0.65 {
		t.Errorf("learned accuracy = %.3f, want >= 0.65", r.LearnedAccuracy)
	}
	if r.Samples == 0 {
		t.Error("no held-out samples")
	}
}

func TestWindowSweepShape(t *testing.T) {
	r, err := WindowSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Curve.Len() != 4 {
		t.Fatalf("sweep points = %d, want 4", r.Curve.Len())
	}
	// The paper's 25 s default should not be dominated by the extremes.
	var p25, p75 float64
	for i, x := range r.Curve.X {
		switch x {
		case 25:
			p25 = r.Curve.Y[i]
		case 75:
			p75 = r.Curve.Y[i]
		}
	}
	if p25 < p75-0.1 {
		t.Errorf("25 s window (%.3f) should be competitive with 75 s (%.3f)", p25, p75)
	}
}

func TestDeltaSweepShape(t *testing.T) {
	r, err := DeltaSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Curve.Len() != 4 {
		t.Fatalf("sweep points = %d, want 4", r.Curve.Len())
	}
	// Every separation still produces a usable detector; the 120 s default
	// must not be dominated by the 30 s extreme (which can double-book one
	// highlight).
	var p30, p120 float64
	for i, x := range r.Curve.X {
		switch x {
		case 30:
			p30 = r.Curve.Y[i]
		case 120:
			p120 = r.Curve.Y[i]
		}
	}
	if p120 < p30-0.15 {
		t.Errorf("δ=120 (%.3f) should be competitive with δ=30 (%.3f)", p120, p30)
	}
}

func TestOnlineVsOfflineShape(t *testing.T) {
	r, err := OnlineVsOffline(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The online pass trades some precision for immediacy, but must stay
	// in the same league as offline and emit promptly.
	if r.OnlinePrecision < r.OfflinePrecision-0.45 {
		t.Errorf("online precision %.3f too far below offline %.3f",
			r.OnlinePrecision, r.OfflinePrecision)
	}
	if r.OnlineDots == 0 {
		t.Error("online mode emitted nothing")
	}
	if r.MeanLagSeconds < 0 || r.MeanLagSeconds > 600 {
		t.Errorf("mean emission lag = %.0fs, want (0, 600)", r.MeanLagSeconds)
	}
	if !strings.Contains(r.Render(), "Online vs offline") {
		t.Error("render missing title")
	}
}

func TestRenderHelpers(t *testing.T) {
	out := renderTable("T", []string{"a", "bb"}, [][]string{{"1", "2"}})
	if !strings.Contains(out, "T") || !strings.Contains(out, "bb") {
		t.Errorf("renderTable output:\n%s", out)
	}
	if got := trimFloat(3); got != "3" {
		t.Errorf("trimFloat(3) = %q", got)
	}
	if got := trimFloat(3.14); got != "3.1" {
		t.Errorf("trimFloat(3.14) = %q", got)
	}
}
