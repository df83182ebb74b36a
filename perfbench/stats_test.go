package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so percentile must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it; want an error")
	}
	v, err := percentile(seq(100), 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if v != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (10 samples above it)", v)
	}
	if _, err := percentile(seq(100), 0.95); err == nil {
		t.Fatal("p95 of 100 samples has 5 beyond it; want an error")
	}
	if v, err := percentile(seq(21), 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
}

func TestTallyCountsRefusedAsFailed(t *testing.T) {
	tl := tally{attempted: 200, errored: 1, refused: 7, mismatched: 2}
	if got := tl.failed(); got != 10 {
		t.Fatalf("failed = %d, want 10 (errored + refused + mismatched)", got)
	}
	if got := tl.okRatio(); got != 0.95 {
		t.Fatalf("okRatio = %v, want 0.95", got)
	}
	if got := (tally{}).okRatio(); got != 0 {
		t.Fatalf("okRatio with nothing attempted = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestPerOpWeighsServeDraws(t *testing.T) {
	if got := perOp([]float64{10, 30}, nil); got != 40 {
		t.Fatalf("batch op over two plans = %v, want their sum 40", got)
	}
	if got := perOp([]float64{10, 30}, []int{1, 3}); got != 25 {
		t.Fatalf("weighted query = %v, want 25", got)
	}
}
