// Package stats provides the small statistical helpers used by the
// experiment harness: summaries over repeated trials and scaling-curve
// comparisons (log n vs √log n vs log log n) for the reproduction tables.
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual aggregate statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of values. An empty sample yields the zero
// Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(values), Min: values[0], Max: values[0]}
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	varSum := 0.0
	for _, v := range values {
		d := v - s.Mean
		varSum += d * d
	}
	if len(values) > 1 {
		s.StdDev = math.Sqrt(varSum / float64(len(values)-1))
	}
	s.Median = Percentile(values, 0.5)
	return s
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of values using
// nearest-rank interpolation. It does not modify the input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of values (0 for an empty sample).
func Mean(values []float64) float64 { return Summarize(values).Mean }

// Interval is a two-sided confidence interval for a mean.
type Interval struct {
	// Level is the confidence level in (0, 1), e.g. 0.95.
	Level  float64
	Lo, Hi float64
}

// Contains reports whether x lies within the interval.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// HalfWidth returns half the interval's width.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// ConfidenceInterval returns the normal-approximation confidence interval
// for the mean of values at the given level: mean ± z·s/√k with z the
// two-sided standard-normal quantile. Level is a fraction in (0, 1) — pass
// 0.95, not 95; levels outside that range panic (a silently degenerate
// interval would let assertions built on it pass vacuously). Samples with
// fewer than two values yield the degenerate interval at the mean. The
// replication counts used by internal/check (k ≥ 8) keep the normal
// approximation serviceable for the bounded, light-tailed quantities the
// theorem checks measure.
func ConfidenceInterval(values []float64, level float64) Interval {
	if level <= 0 || level >= 1 {
		panic("stats: confidence level must be a fraction in (0, 1)")
	}
	s := Summarize(values)
	iv := Interval{Level: level, Lo: s.Mean, Hi: s.Mean}
	if s.Count < 2 {
		return iv
	}
	z := math.Sqrt2 * math.Erfinv(level)
	d := z * s.StdDev / math.Sqrt(float64(s.Count))
	iv.Lo, iv.Hi = s.Mean-d, s.Mean+d
	return iv
}

// LinearFit returns the least-squares slope and intercept of ys over xs.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	return slope, intercept
}

// ScalingModel is a candidate growth curve for the round/message scaling
// experiments.
type ScalingModel struct {
	Name string
	F    func(n float64) float64
}

// Models returns the three growth curves the paper distinguishes:
// Θ(log n) (classical gossip), Θ(√log n) (Avin–Elsässer) and Θ(log log n)
// (this paper).
func Models() []ScalingModel {
	return []ScalingModel{
		{Name: "log n", F: func(n float64) float64 { return math.Log2(n) }},
		{Name: "sqrt(log n)", F: func(n float64) float64 { return math.Sqrt(math.Log2(n)) }},
		{Name: "log log n", F: func(n float64) float64 { return math.Log2(math.Log2(n)) }},
	}
}

// BestModel returns the name of the model whose predictions correlate best
// with the measurements ys at sizes ns, together with the per-model
// correlation. Ties favour the earlier (faster-growing) model.
func BestModel(ns []float64, ys []float64) (string, map[string]float64) {
	correlations := make(map[string]float64, 3)
	bestName := ""
	best := math.Inf(-1)
	for _, m := range Models() {
		xs := make([]float64, len(ns))
		for i, n := range ns {
			xs[i] = m.F(n)
		}
		// Compare by how well a proportional fit through the measurements
		// explains the growth: use the relative residual of the least-squares
		// proportional fit, converted to a score.
		score := proportionalFitScore(xs, ys)
		correlations[m.Name] = score
		if score > best {
			best = score
			bestName = m.Name
		}
	}
	return bestName, correlations
}

// proportionalFitScore fits ys ≈ c·xs + d and returns 1 − normalized residual
// (1 means a perfect fit).
func proportionalFitScore(xs, ys []float64) float64 {
	slope, intercept := LinearFit(xs, ys)
	var ss, tot float64
	my := Mean(ys)
	for i := range xs {
		pred := slope*xs[i] + intercept
		ss += (ys[i] - pred) * (ys[i] - pred)
		tot += (ys[i] - my) * (ys[i] - my)
	}
	if tot == 0 {
		return 0
	}
	return 1 - ss/tot
}

// GrowthRatio returns ys[len-1]/ys[0], the end-to-end growth of a measurement
// across the sweep (0 for degenerate input).
func GrowthRatio(ys []float64) float64 {
	if len(ys) < 2 || ys[0] == 0 {
		return 0
	}
	return ys[len(ys)-1] / ys[0]
}
