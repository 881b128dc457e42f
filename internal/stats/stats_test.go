package stats

import (
	"math"
	"sync"
	"testing"
)

func TestHarmonic(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {1, 1}, {2, 1.5}, {3, 1.5 + 1.0/3},
	}
	for _, c := range cases {
		if got := Harmonic(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Harmonic(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Cross-check the asymptotic branch against direct summation.
	for _, n := range []int{1024, 5000, 100000} {
		var direct float64
		for i := n; i >= 1; i-- {
			direct += 1 / float64(i)
		}
		if got := Harmonic(n); math.Abs(got-direct) > 1e-9 {
			t.Errorf("Harmonic(%d) = %.12f, direct %.12f", n, got, direct)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.P50-2.5) > 1e-12 {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.Std <= 0 {
		t.Errorf("Std = %v", s.Std)
	}
	if e := Summarize(nil); e.N != 0 {
		t.Errorf("empty summary: %+v", e)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	a, b, r2 := FitLine(xs, ys)
	if math.Abs(a-3) > 1e-9 || math.Abs(b-2) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Fatalf("fit: a=%v b=%v r2=%v", a, b, r2)
	}
	if a, _, _ := FitLine(xs[:1], ys[:1]); !math.IsNaN(a) {
		t.Error("underdetermined fit should be NaN")
	}
	if a, _, _ := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); !math.IsNaN(a) {
		t.Error("degenerate x fit should be NaN")
	}
}

func TestTheoremBounds(t *testing.T) {
	// Theorem 4.2: with c=2, g=2 (2D hull), sigma = g*k*e^2 ~ 29.6.
	sigma := Theorem42MinSigma(2, 2)
	if math.Abs(sigma-4*math.E*math.E) > 1e-12 {
		t.Fatalf("min sigma = %v", sigma)
	}
	p := Theorem42Bound(1000, 2, 2, sigma)
	want := 2 * math.Pow(1000, -(sigma-2))
	if math.Abs(p-want) > 1e-20*want {
		t.Fatalf("bound = %v want %v", p, want)
	}
	// Theorem 3.1: with |T_i| = i and g=1 the bound is n * H_n-ish.
	sizes := make([]float64, 100)
	for i := range sizes {
		sizes[i] = float64(i + 1)
	}
	got := Theorem31Bound(1, sizes)
	if math.Abs(got-100*Harmonic(100)) > 1e-9 {
		t.Fatalf("Theorem31Bound = %v want %v", got, 100*Harmonic(100))
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int{0, 1, 1, 3, -5} {
		h.Observe(v)
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Count(1) != 2 || h.Count(2) != 0 || h.Count(0) != 2 || h.Count(99) != 0 {
		t.Fatal("bad counts")
	}
	if h.Max() != 3 {
		t.Fatalf("max = %d", h.Max())
	}
	if got := h.TailProb(1); math.Abs(got-3.0/5) > 1e-12 {
		t.Fatalf("TailProb(1) = %v", got)
	}
	if got := h.TailProb(-1); got != 1 {
		t.Fatalf("TailProb(-1) = %v", got)
	}
	var empty Histogram
	if !math.IsNaN(empty.TailProb(0)) || empty.Max() != -1 {
		t.Error("empty histogram misbehaves")
	}
}

func TestShardedCounter(t *testing.T) {
	var c ShardedCounter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(id)
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("Load = %d", got)
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("Reset failed")
	}
}
