// Package stats provides the small statistical toolkit the evaluation
// harness needs: summary statistics, binomial confidence intervals for
// Monte-Carlo advantage estimates, and distribution-distance measures used
// to quantify leakage.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator), or
// 0 for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Binomial summarises wins out of trials, e.g. an adversary's performance in
// a security game.
type Binomial struct {
	// Wins is the number of successes.
	Wins int
	// Trials is the number of independent trials.
	Trials int
}

// Rate returns the empirical success probability.
func (b Binomial) Rate() float64 {
	if b.Trials == 0 {
		return 0
	}
	return float64(b.Wins) / float64(b.Trials)
}

// Advantage converts a guessing-game success rate into the standard
// cryptographic advantage 2·Pr[win] − 1 ∈ [−1, 1] (0 for a blind guesser,
// 1 for a perfect distinguisher).
func (b Binomial) Advantage() float64 {
	return 2*b.Rate() - 1
}

// WilsonInterval returns the Wilson score interval for the success
// probability at confidence level z standard normal deviates (z = 1.96 for
// 95%).
func (b Binomial) WilsonInterval(z float64) (lo, hi float64) {
	if b.Trials == 0 {
		return 0, 1
	}
	n := float64(b.Trials)
	p := b.Rate()
	z2 := z * z
	den := 1 + z2/n
	centre := (p + z2/(2*n)) / den
	half := z / den * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = math.Max(0, centre-half)
	hi = math.Min(1, centre+half)
	return lo, hi
}

// HoeffdingRadius returns the half-width of the two-sided Hoeffding bound on
// the deviation of the empirical rate from the true rate, at confidence
// 1-delta: radius = sqrt(ln(2/delta) / (2n)).
func (b Binomial) HoeffdingRadius(delta float64) float64 {
	if b.Trials == 0 || delta <= 0 || delta >= 1 {
		return 1
	}
	return math.Sqrt(math.Log(2/delta) / (2 * float64(b.Trials)))
}

// BinomialTail returns P[X ≥ k] for X ~ Binomial(n, p), exactly: the
// sum of the probability mass on the side of k away from the mean, each
// term from its neighbour by the pmf's ratio, so a tail of 10⁻⁹ is
// summed, not found as the difference of two numbers near 1.
func BinomialTail(n int, p float64, k int) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	q := 1 - p
	pmf := func(i int) float64 {
		lg := func(x int) float64 { v, _ := math.Lgamma(float64(x) + 1); return v }
		return math.Exp(lg(n) - lg(i) - lg(n-i) + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	if float64(k) > float64(n)*p {
		// Upper tail: terms fall from k on.
		sum := 0.0
		for i, t := k, pmf(k); i <= n && t > sum*1e-17; i++ {
			sum += t
			t *= float64(n-i) / float64(i+1) * p / q
		}
		return math.Min(sum, 1)
	}
	// The lower tail P[X ≤ k−1]: terms fall from k−1 down.
	sum := 0.0
	for i, t := k-1, pmf(k-1); i >= 0 && t > sum*1e-17; i-- {
		sum += t
		t *= float64(i) / float64(n-i+1) * q / p
	}
	return math.Max(1-sum, 0)
}

// BinomialCritical returns the least c with P[X ≥ c] ≤ alpha for X ~
// Binomial(n, p): a count an adversary of success rate p reaches, or a
// scheme of false-hit rate p produces, with probability at most alpha.
func BinomialCritical(n int, p, alpha float64) int {
	c := int(float64(n) * p)
	for c <= n && BinomialTail(n, p, c) > alpha {
		c++
	}
	return c
}

// String renders the binomial as "wins/trials (rate)".
func (b Binomial) String() string {
	return fmt.Sprintf("%d/%d (%.3f)", b.Wins, b.Trials, b.Rate())
}

// Entropy returns the Shannon entropy (bits) of a discrete distribution
// given as unnormalised non-negative weights.
func Entropy(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		p := w / total
		h -= p * math.Log2(p)
	}
	return h
}

// TotalVariation returns the total-variation distance between two discrete
// distributions over the same support, each given as unnormalised
// non-negative weights. The slices must have the same length.
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: TV distance over different supports (%d vs %d)", len(p), len(q))
	}
	var sp, sq float64
	for i := range p {
		sp += p[i]
		sq += q[i]
	}
	if sp == 0 || sq == 0 {
		return 0, fmt.Errorf("stats: TV distance of empty distribution")
	}
	var d float64
	for i := range p {
		d += math.Abs(p[i]/sp - q[i]/sq)
	}
	return d / 2, nil
}
