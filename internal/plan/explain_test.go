package plan

import (
	"strings"
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

func TestExplainCliqueSchedule(t *testing.T) {
	pl := MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi})
	s := pl.Explain()
	for _, want := range []string{
		"for v0 in V:",
		"for v1 in N(v0):",
		"VCS",                    // clique levels reuse intersections
		"v1 > v0",                // total-order symmetry breaking
		"from v0+1",              // level 1's kernel bound
		"from max(v0, v1, v2)+1", // level 3's kernel bound
		"emit(v0..v3)",
		"estimated cost:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
}

func TestExplainInducedShowsSubtraction(t *testing.T) {
	pl := MustCompile(pattern.CycleP(4), Options{Style: StyleGraphPi, Induced: true})
	s := pl.Explain()
	if !strings.Contains(s, "induced") {
		t.Errorf("Explain missing induced mode:\n%s", s)
	}
	if !strings.Contains(s, "\\") {
		t.Errorf("Explain missing subtraction for induced cycle:\n%s", s)
	}
}

func TestExplainLabeled(t *testing.T) {
	pat := pattern.PathP(3).WithLabels([]graph.Label{1, 2, 3})
	pl := MustCompile(pat, Options{Style: StyleAutomine})
	if s := pl.Explain(); !strings.Contains(s, "labels:") {
		t.Errorf("Explain missing labels:\n%s", s)
	}
	epat := pattern.Triangle()
	epat.SetEdgeLabel(0, 1, 1)
	epat.SetEdgeLabel(1, 2, 1)
	epat.SetEdgeLabel(0, 2, 1)
	epl := MustCompile(epat, Options{Style: StyleAutomine})
	if s := epl.Explain(); !strings.Contains(s, "edge labels") {
		t.Errorf("Explain missing edge labels:\n%s", s)
	}
}

func TestExplainCountOnlyNote(t *testing.T) {
	pl := MustCompile(pattern.Triangle(), Options{Style: StyleAutomine})
	if s := pl.Explain(); !strings.Contains(s, "counted directly") {
		t.Errorf("Explain missing count-only note:\n%s", s)
	}
}

func TestExplainShowsNarrowedClip(t *testing.T) {
	// Diamond under GraphPi: level 2 extends R1 with no restriction of its
	// own, so level 1 keeps its v1 > v0 filter but cannot clip R1 on it.
	pl := MustCompile(pattern.Diamond(), Options{Style: StyleGraphPi})
	lines := strings.Split(pl.Explain(), "\n")
	for _, l := range lines {
		if strings.Contains(l, "for v1 in") && (!strings.Contains(l, "v1 > v0") || strings.Contains(l, "from ")) {
			t.Errorf("level 1 should filter on v1 > v0 without a kernel bound: %q", l)
		}
		if strings.Contains(l, "for v3 in") && !strings.Contains(l, "from v2+1") {
			t.Errorf("level 3 should show its kernel bound: %q", l)
		}
	}
}
