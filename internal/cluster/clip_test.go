package cluster

import (
	"fmt"
	"testing"

	"khuzdul/internal/automine"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/graphpi"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// TestChunkBoundaryExactCounts runs the engine over the chan fabric with
// 8-embedding chunks, so stored intersections clipped to symmetry-breaking
// bounds cross many chunk and fetch-batch boundaries, with every hub
// promotable to the bitmap kernel (HubThreshold 1) and with the compiled
// threshold, and with HDS on and off. Every count must equal brute force.
func TestChunkBoundaryExactCounts(t *testing.T) {
	g := graph.RMATDefault(90, 450, 59)
	pats := map[string]*pattern.Pattern{
		"K4":              pattern.Clique(4),
		"K5":              pattern.Clique(5),
		"diamond":         pattern.Diamond(),
		"C4":              pattern.CycleP(4),
		"house":           pattern.House(),
		"tailed-triangle": pattern.TailedTriangle(),
	}
	for name, pat := range pats {
		want := plan.BruteForceCount(g, pat, false)
		if want == 0 {
			t.Fatalf("%s: no embeddings in the test graph", name)
		}
		gp, err := graphpi.Compile(pat, g, graphpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		am, err := automine.Compile(pat, g, automine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, hub := range []uint32{1, 0} {
			for _, noHDS := range []bool{false, true} {
				c := mustCluster(t, g, Config{
					NumNodes:         4,
					ThreadsPerSocket: 2,
					ChunkSize:        8,
					HubThreshold:     hub,
					DisableHDS:       noHDS,
				})
				for _, pl := range []*plan.Plan{gp, am} {
					res, err := c.Count(pl)
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != want {
						t.Errorf("%s %v hub=%d noHDS=%v: count %d, want %d", name, pl.Style, hub, noHDS, res.Count, want)
					}
					if hub == 1 && res.Summary.KernelBitmap == 0 {
						t.Errorf("%s %v noHDS=%v: no bitmap kernel calls with every list a hub", name, pl.Style, noHDS)
					}
				}
			}
		}
	}
}

// TestChunkBoundaryCrashRecoveryExactCounts crashes a node mid-run so
// recovery engines re-run its roots. The plans have VCS off: then no level
// has a stored intersection to extend, and the clique levels run the k-way
// pivot kernel over clipped lists.
func TestChunkBoundaryCrashRecoveryExactCounts(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(90, 450, 59)
	prof, err := fault.ParseProfile("seed=5,crash=1@4")
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []*pattern.Pattern{pattern.Clique(4), pattern.Clique(5)} {
		want := plan.BruteForceCount(g, pat, false)
		pl, err := graphpi.Compile(pat, g, graphpi.Options{DisableVCS: true})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Levels[pl.K-1].KernelHint != plan.HintPivot || len(pl.Levels[pl.K-1].Clip) == 0 {
			t.Fatalf("%v: last level is not a clipped pivot step:\n%s", pat, pl.Explain())
		}
		for _, hub := range []uint32{1, 0} {
			t.Run(fmt.Sprintf("%d-clique/hub=%d", pat.NumVertices(), hub), func(t *testing.T) {
				cfg := chaosConfig(prof, TransportChan)
				cfg.HubThreshold = hub
				c := mustCluster(t, g, cfg)
				res, err := c.Count(pl)
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != want {
					t.Fatalf("count under crash = %d, want %d", res.Count, want)
				}
				if res.RecoveryRounds == 0 || res.Summary.RecoveredRoots == 0 {
					t.Fatalf("no recovery ran (rounds %d, roots %d); the crash never fired", res.RecoveryRounds, res.Summary.RecoveredRoots)
				}
				if res.Summary.KernelPivot == 0 {
					t.Fatal("no pivot kernel calls recorded")
				}
			})
		}
	}
}
