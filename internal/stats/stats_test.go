package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || !almostEqual(s.Mean, 3) || !almostEqual(s.Min, 1) || !almostEqual(s.Max, 5) || !almostEqual(s.Median, 3) {
		t.Fatalf("summary = %+v", s)
	}
	if !almostEqual(s.StdDev, math.Sqrt(2.5)) {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if Summarize(nil).Count != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if !almostEqual(Percentile(vals, 0), 1) || !almostEqual(Percentile(vals, 1), 5) {
		t.Fatal("extreme percentiles wrong")
	}
	if !almostEqual(Percentile(vals, 0.5), 3) {
		t.Fatalf("median = %v", Percentile(vals, 0.5))
	}
	if !almostEqual(Percentile(vals, 0.25), 2) {
		t.Fatalf("p25 = %v", Percentile(vals, 0.25))
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Percentile must not reorder its input.
	if !sort.Float64sAreSorted([]float64{1, 2, 3}) {
		t.Fatal("sanity")
	}
	input := []float64{3, 1, 2}
	Percentile(input, 0.5)
	if input[0] != 3 || input[1] != 1 || input[2] != 2 {
		t.Fatal("Percentile modified its input")
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p = math.Abs(p)
		p -= math.Floor(p)
		got := Percentile(vals, p)
		s := Summarize(vals)
		return got >= s.Min-1e-9 && got <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFit(t *testing.T) {
	slope, intercept := LinearFit([]float64{1, 2, 3, 4}, []float64{3, 5, 7, 9})
	if !almostEqual(slope, 2) || !almostEqual(intercept, 1) {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	slope, intercept = LinearFit([]float64{2, 2}, []float64{1, 3})
	if slope != 0 || !almostEqual(intercept, 2) {
		t.Fatalf("degenerate fit = %v, %v", slope, intercept)
	}
}

func TestBestModelIdentifiesScaling(t *testing.T) {
	ns := []float64{1e3, 1e4, 1e5, 1e6}
	logLog := make([]float64, len(ns))
	logN := make([]float64, len(ns))
	for i, n := range ns {
		logLog[i] = 10 * math.Log2(math.Log2(n))
		logN[i] = 2 * math.Log2(n)
	}
	if best, _ := BestModel(ns, logLog); best != "log log n" {
		t.Fatalf("log log data identified as %q", best)
	}
	if best, _ := BestModel(ns, logN); best != "log n" {
		t.Fatalf("log n data identified as %q", best)
	}
}

func TestGrowthRatio(t *testing.T) {
	if !almostEqual(GrowthRatio([]float64{2, 4, 8}), 4) {
		t.Fatal("growth ratio wrong")
	}
	if GrowthRatio([]float64{0, 1}) != 0 || GrowthRatio([]float64{1}) != 0 {
		t.Fatal("degenerate growth ratio should be 0")
	}
}

func TestModelsAreMonotone(t *testing.T) {
	for _, m := range Models() {
		if m.F(1e6) <= m.F(1e3) {
			t.Fatalf("model %s is not increasing", m.Name)
		}
	}
}

func TestConfidenceInterval(t *testing.T) {
	// A symmetric sample: the interval must be centered on the mean, widen
	// with the confidence level, and shrink as the sample grows.
	sample := []float64{8, 9, 10, 11, 12, 9, 10, 11}
	iv95 := ConfidenceInterval(sample, 0.95)
	if !almostEqual((iv95.Lo+iv95.Hi)/2, Mean(sample)) {
		t.Fatalf("interval %+v not centered on mean %v", iv95, Mean(sample))
	}
	if !iv95.Contains(10) {
		t.Fatalf("interval %+v misses the true center", iv95)
	}
	iv99 := ConfidenceInterval(sample, 0.99)
	if iv99.HalfWidth() <= iv95.HalfWidth() {
		t.Fatalf("99%% interval %+v not wider than 95%% %+v", iv99, iv95)
	}
	doubled := append(append([]float64(nil), sample...), sample...)
	if wide := ConfidenceInterval(doubled, 0.95); wide.HalfWidth() >= iv95.HalfWidth() {
		t.Fatalf("doubling the sample did not shrink the interval: %+v vs %+v", wide, iv95)
	}
	// Degenerate samples collapse to the mean.
	if iv := ConfidenceInterval([]float64{7}, 0.95); iv.Lo != 7 || iv.Hi != 7 {
		t.Fatalf("single-value interval %+v", iv)
	}
	// The 95% z-quantile: half-width = z·s/sqrt(k) with z ≈ 1.96.
	s := Summarize(sample)
	z := iv95.HalfWidth() / (s.StdDev / math.Sqrt(float64(s.Count)))
	if math.Abs(z-1.9599) > 1e-3 {
		t.Fatalf("z-quantile %v, want ≈1.96", z)
	}
}

func TestConfidenceIntervalRejectsBadLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("percentage-style level accepted without panic")
		}
	}()
	ConfidenceInterval([]float64{1, 2, 3}, 95)
}
