package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from identical seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestSeedZeroUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced repeated values: %d unique of 100", len(seen))
	}
}

func TestStreamIndependence(t *testing.T) {
	s0 := Stream(7, 0)
	s1 := Stream(7, 1)
	base := New(7)
	if s0.Uint64() == s1.Uint64() {
		t.Fatal("streams 0 and 1 produced the same first draw")
	}
	if Stream(7, 0).Uint64() == base.Uint64() {
		t.Fatal("Stream(seed, 0) should differ from New(seed)")
	}
	// Same (seed, index) must reproduce.
	x := Stream(9, 3)
	y := Stream(9, 3)
	for i := 0; i < 10; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatal("Stream is not deterministic")
		}
	}
}

func TestSplitDecorrelates(t *testing.T) {
	parent := New(5)
	child := parent.Split()
	matches := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("split child matched parent %d times", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(13)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sumSq += f * f
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d count %d, want ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulli(t *testing.T) {
	r := New(19)
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(23)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(2.0)
		if v < 0 {
			t.Fatalf("Exponential draw negative: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exponential(2) mean = %v, want ~0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(29)
	p := 0.05
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		k := r.Geometric(p)
		if k < 1 {
			t.Fatalf("Geometric draw below support: %d", k)
		}
		sum += float64(k)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/p) > 0.5 {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, 1/p)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(31)
	for i := 0; i < 10; i++ {
		if k := r.Geometric(1); k != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", k)
		}
	}
}

func TestBinomialSmallN(t *testing.T) {
	r := New(37)
	n, p := 32, 0.2
	trials := 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		k := r.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("Binomial out of range: %d", k)
		}
		f := float64(k)
		sum += f
		sumSq += f * f
	}
	mean := sum / float64(trials)
	variance := sumSq/float64(trials) - mean*mean
	wantMean := float64(n) * p
	wantVar := float64(n) * p * (1 - p)
	if math.Abs(mean-wantMean) > 0.05 {
		t.Errorf("Binomial mean = %v, want ~%v", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Errorf("Binomial variance = %v, want ~%v", variance, wantVar)
	}
}

func TestBinomialLargeN(t *testing.T) {
	r := New(41)
	n, p := 1000, 0.01
	trials := 50000
	sum := 0.0
	for i := 0; i < trials; i++ {
		k := r.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("Binomial out of range: %d", k)
		}
		sum += float64(k)
	}
	mean := sum / float64(trials)
	if math.Abs(mean-10) > 0.2 {
		t.Errorf("Binomial(1000, 0.01) mean = %v, want ~10", mean)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(43)
	if k := r.Binomial(10, 0); k != 0 {
		t.Errorf("Binomial(10, 0) = %d", k)
	}
	if k := r.Binomial(10, 1); k != 10 {
		t.Errorf("Binomial(10, 1) = %d", k)
	}
	if k := r.Binomial(0, 0.5); k != 0 {
		t.Errorf("Binomial(0, .5) = %d", k)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(47)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Normal variance = %v", variance)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(53)
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical bucket %d freq %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalZeroWeightNeverChosen(t *testing.T) {
	r := New(59)
	weights := []float64{0, 1, 0}
	for i := 0; i < 1000; i++ {
		if got := r.Categorical(weights); got != 1 {
			t.Fatalf("Categorical chose zero-weight index %d", got)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"negative": {1, -1},
		"allzero":  {0, 0},
		"nan":      {math.NaN(), 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%s) did not panic", name)
				}
			}()
			New(1).Categorical(weights)
		}()
	}
}

func TestCategoricalCumMatchesCategorical(t *testing.T) {
	ramp := make([]float64, 12)
	for i := range ramp {
		ramp[i] = float64(i%4) / 7 // zero weights at 0, 4, 8
	}
	for _, weights := range [][]float64{
		{2},
		{0.2, 0.8},
		{0, 1, 0},
		{0, 0, 3, 0},
		{1e-300, 1, 0, 1e300},
		{0.1, 0.2, 0.3, 0.4, 0.5},
		ramp,
	} {
		cum := Cumulative(nil, weights)
		a, b := New(67), New(67)
		for i := 0; i < 20000; i++ {
			if x, y := a.Categorical(weights), b.CategoricalCum(cum); x != y {
				t.Fatalf("weights %v draw %d: Categorical = %d, CategoricalCum = %d", weights, i, x, y)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("weights %v: streams diverged", weights)
		}
	}
}

func TestCumulativeRunningSums(t *testing.T) {
	var buf [4]float64
	// Variables, not constants: constant expressions are folded exactly.
	x, y, z := 0.1, 0.2, 0.3
	cum := Cumulative(buf[:0], []float64{x, 0, y, z})
	want := []float64{x, x, x + y, x + y + z}
	if len(cum) != len(want) || &cum[0] != &buf[0] {
		t.Fatalf("Cumulative = %v, want %v written into dst", cum, want)
	}
	for i := range want {
		if math.Float64bits(cum[i]) != math.Float64bits(want[i]) {
			t.Errorf("cum[%d] = %v, want %v", i, cum[i], want[i])
		}
	}
	// A dst too small for the weights grows like append.
	if got := Cumulative(buf[:0], []float64{1, 1, 1, 1, 1, 1}); len(got) != 6 || got[5] != 6 {
		t.Errorf("Cumulative over 6 weights = %v", got)
	}
}

func TestCumulativePanicsLikeCategorical(t *testing.T) {
	catch := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for name, weights := range map[string][]float64{
		"negative": {1, -1},
		"allzero":  {0, 0},
		"nan":      {math.NaN(), 1},
		"empty":    {},
	} {
		want := catch(func() { New(1).Categorical(weights) })
		got := catch(func() { Cumulative(nil, weights) })
		if want == nil || got != want {
			t.Errorf("%s: Cumulative panicked with %v, Categorical with %v", name, got, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(61)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(67)
	s := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("Shuffle lost elements: %v", s)
	}
}

// Property: Float64 is always in [0,1) regardless of seed.
func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		r := New(seed)
		for i := 0; i < int(draws); i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two generators with the same seed agree on arbitrary prefixes.
func TestQuickDeterministicPrefix(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < int(draws); i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intn stays in bounds for arbitrary n and seeds.
func TestQuickIntnBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 5: "5", 42: "42", -7: "-7", 1234567: "1234567"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkCategorical10(b *testing.B) {
	r := New(1)
	w := make([]float64, 10)
	for i := range w {
		w[i] = float64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Categorical(w)
	}
}
