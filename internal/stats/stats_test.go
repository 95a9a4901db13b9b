package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12) {
		t.Fatal("Mean wrong")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("StdDev of singleton should be 0")
	}
	if !almost(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3) {
		t.Fatalf("StdDev = %v", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if !almost(Quantile(xs, 0.5), 3, 1e-12) {
		t.Fatal("median wrong")
	}
	if !almost(Quantile(xs, 0.25), 2, 1e-12) {
		t.Fatal("q25 wrong")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	// Quantile must not mutate its input.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestBinomial(t *testing.T) {
	b := Binomial{Wins: 75, Trials: 100}
	if !almost(b.Rate(), 0.75, 1e-12) {
		t.Fatal("Rate wrong")
	}
	if !almost(b.Advantage(), 0.5, 1e-12) {
		t.Fatal("Advantage wrong")
	}
	if (Binomial{}).Rate() != 0 {
		t.Fatal("empty binomial rate should be 0")
	}
}

func TestWilsonInterval(t *testing.T) {
	b := Binomial{Wins: 50, Trials: 100}
	lo, hi := b.WilsonInterval(1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v, %v] must contain the point estimate", lo, hi)
	}
	if lo < 0 || hi > 1 {
		t.Fatalf("interval [%v, %v] out of [0,1]", lo, hi)
	}
	// More trials must narrow the interval.
	lo2, hi2 := (Binomial{Wins: 500, Trials: 1000}).WilsonInterval(1.96)
	if hi2-lo2 >= hi-lo {
		t.Fatal("interval did not narrow with more trials")
	}
	lo3, hi3 := (Binomial{}).WilsonInterval(1.96)
	if lo3 != 0 || hi3 != 1 {
		t.Fatal("empty binomial should give the vacuous interval")
	}
}

func TestWilsonIntervalProperty(t *testing.T) {
	f := func(w, n uint16) bool {
		trials := int(n%1000) + 1
		wins := int(w) % (trials + 1)
		lo, hi := (Binomial{Wins: wins, Trials: trials}).WilsonInterval(1.96)
		p := float64(wins) / float64(trials)
		return lo >= 0 && hi <= 1 && lo <= p+1e-9 && hi >= p-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHoeffdingRadius(t *testing.T) {
	b := Binomial{Wins: 0, Trials: 1000}
	r := b.HoeffdingRadius(0.05)
	if r <= 0 || r >= 1 {
		t.Fatalf("radius %v out of range", r)
	}
	r2 := (Binomial{Wins: 0, Trials: 4000}).HoeffdingRadius(0.05)
	if !almost(r2, r/2, 1e-9) {
		t.Fatalf("radius should halve with 4x trials: %v vs %v", r2, r)
	}
	if (Binomial{}).HoeffdingRadius(0.05) != 1 {
		t.Fatal("empty binomial radius should be vacuous")
	}
}

func TestEntropy(t *testing.T) {
	if !almost(Entropy([]float64{1, 1}), 1, 1e-12) {
		t.Fatal("fair coin should have 1 bit")
	}
	if Entropy([]float64{1, 0, 0}) != 0 {
		t.Fatal("point mass should have 0 bits")
	}
	if !almost(Entropy([]float64{1, 1, 1, 1}), 2, 1e-12) {
		t.Fatal("uniform over 4 should have 2 bits")
	}
	if Entropy(nil) != 0 {
		t.Fatal("empty distribution entropy should be 0")
	}
}

func TestTotalVariation(t *testing.T) {
	d, err := TotalVariation([]float64{1, 0}, []float64{0, 1})
	if err != nil || !almost(d, 1, 1e-12) {
		t.Fatalf("disjoint distributions should have TV 1: %v %v", d, err)
	}
	d, err = TotalVariation([]float64{1, 1}, []float64{2, 2})
	if err != nil || !almost(d, 0, 1e-12) {
		t.Fatalf("identical (normalised) distributions should have TV 0: %v %v", d, err)
	}
	if _, err := TotalVariation([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched supports accepted")
	}
	if _, err := TotalVariation([]float64{0}, []float64{1}); err == nil {
		t.Fatal("empty distribution accepted")
	}
}

// TestBinomialTail: the tail is exact against sums computed by hand, far
// out in both tails, and within 10⁻⁴ of the Poisson limit where that is
// the known form; BinomialCritical is the least count whose tail is
// within alpha.
func TestBinomialTail(t *testing.T) {
	l := 0.125 // λ of Binomial(2^21, 2^-24)
	for _, c := range []struct {
		n        int
		p        float64
		k        int
		want     float64
		relative float64
	}{
		{10, 0.5, 8, 56.0 / 1024, 1e-12},            // C(10,8)+C(10,9)+C(10,10) = 45+10+1
		{10, 0.5, 3, 1 - 56.0/1024, 1e-12},          // symmetric
		{10, 0.5, 0, 1, 0},                          // everything
		{10, 0.5, 11, 0, 0},                         // nothing
		{20, 0.1, 1, 1 - math.Pow(0.9, 20), 1e-12},  // at least one
		{20, 0.9, 20, math.Pow(0.9, 20), 1e-12},     // all of them
		{60, 0.5, 60, math.Pow(0.5, 60), 1e-12},     // far upper tail
		{60, 0.5, 1, 1 - math.Pow(0.5, 60), 1e-12},  // far lower tail
		{4, 0.25, 2, 1 - (81.0+108.0)/256.0, 1e-12}, // 1 − P[0] − P[1]
		{1 << 21, 1.0 / (1 << 24), 5, 1 - math.Exp(-l)*(1+l+l*l/2+l*l*l/6+l*l*l*l/24), 1e-4},
	} {
		got := BinomialTail(c.n, c.p, c.k)
		if math.Abs(got-c.want) > c.relative*c.want {
			t.Errorf("BinomialTail(%d, %v, %d) = %v, want %v", c.n, c.p, c.k, got, c.want)
		}
	}
	for _, c := range []struct {
		n     int
		p     float64
		alpha float64
	}{{100, 0.5, 1e-6}, {900, 0.92, 1e-6}, {1 << 21, 1.0 / (1 << 24), 1e-6}} {
		k := BinomialCritical(c.n, c.p, c.alpha)
		if BinomialTail(c.n, c.p, k) > c.alpha || BinomialTail(c.n, c.p, k-1) <= c.alpha {
			t.Errorf("BinomialCritical(%d, %v, %v) = %d: tails %v and %v", c.n, c.p, c.alpha, k,
				BinomialTail(c.n, c.p, k-1), BinomialTail(c.n, c.p, k))
		}
	}
}
