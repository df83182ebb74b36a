package main

import (
	"testing"

	"khuzdul/internal/plan"
)

// tinyVertices sizes the graphs the oracle is checked on: small enough for
// plan.BruteForceCount to enumerate every 4-vertex mapping.
const tinyVertices = 40

// TestReferenceMatchesBruteForce checks the oracle each timed op is compared
// against: on a tiny build of every workload's graph shape, the k-Automine
// plan.CountGraph reference equals the brute-force count.
func TestReferenceMatchesBruteForce(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			g, err := w.buildGraph(float64(tinyVertices)/float64(w.n), seed)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumEdges() == 0 {
				t.Fatalf("%s seed %d: tiny graph has no edges", w.name, seed)
			}
			ref, err := w.reference(g)
			if err != nil {
				t.Fatal(err)
			}
			pats, err := w.parsePatterns()
			if err != nil {
				t.Fatal(err)
			}
			nonzero := false
			for i, p := range pats {
				want := plan.BruteForceCount(g, p, false)
				if ref[i] != want {
					t.Errorf("%s seed %d %s: reference %d, brute force %d", w.name, seed, w.patterns[i], ref[i], want)
				}
				nonzero = nonzero || want > 0
			}
			if !nonzero {
				t.Errorf("%s seed %d: every count is 0, the check proves nothing", w.name, seed)
			}
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	w, err := workloadByName("serve-mix-tcp")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := w.buildGraph(0.1, 5)
	b, _ := w.buildGraph(0.1, 5)
	c, _ := w.buildGraph(0.1, 6)
	if a.String() != b.String() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed built %v and %v", a, b)
	}
	if a.NumEdges() == c.NumEdges() && a.MaxDegree() == c.MaxDegree() {
		t.Errorf("seeds 5 and 6 built graphs of identical shape %v", a)
	}
	deck := 0
	for _, n := range w.weights {
		deck += n
	}
	o1 := patternOrder(5, 9*deck, w.weights)
	o2 := patternOrder(5, 9*deck, w.weights)
	o3 := patternOrder(6, 9*deck, w.weights)
	same := true
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("query %d differs under one seed: %d vs %d", i, o1[i], o2[i])
		}
		same = same && o1[i] == o3[i]
	}
	if same {
		t.Error("seeds 5 and 6 dealt the same pattern order")
	}
	// Nine whole decks: shares are exactly nine times the weights.
	share := make([]int, len(w.weights))
	for _, p := range o1 {
		share[p]++
	}
	for p, n := range share {
		if n != 9*w.weights[p] {
			t.Errorf("pattern %d dealt %d times of %d, want %d", p, n, 9*deck, 9*w.weights[p])
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := workloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
