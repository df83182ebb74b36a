package cluster

import (
	"sync"
	"testing"

	"khuzdul/internal/core"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/graphpi"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// TestRecoveryAndSpeculationKeepThreadBudget: a run's per-socket worker
// budget (RunOpts.ThreadsPerSocket, the resident service's admission budget)
// binds every engine the run starts — crash-recovery engines and speculative
// copies as well as the main per-socket engines. Recovery engines and copies
// span a whole machine, so their bound is the budget times the socket count,
// not the cluster's configured width.
func TestRecoveryAndSpeculationKeepThreadBudget(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl, err := graphpi.Compile(pattern.Clique(4), g, graphpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	var (
		mu      sync.Mutex
		threads []int
	)
	orig := newEngine
	newEngine = func(ext core.Extender, src core.DataSource, sink core.Sink, cfg core.Config) *core.Engine {
		mu.Lock()
		threads = append(threads, cfg.Threads)
		mu.Unlock()
		return orig(ext, src, sink, cfg)
	}
	t.Cleanup(func() { newEngine = orig })

	const sockets, width, budget = 2, 4, 1
	cases := []struct {
		name      string
		prof      *fault.Profile
		speculate bool
	}{
		{"recovery", &fault.Profile{Seed: 11, Crashes: []fault.Crash{{Node: 1, After: 10}}}, false},
		{"speculation", &fault.Profile{Seed: 37, Slowdowns: []fault.Slowdown{{Node: 1, Factor: 60}}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mu.Lock()
			threads = nil
			mu.Unlock()
			cfg := chaosConfig(tc.prof, TransportChan)
			cfg.Sockets = sockets
			cfg.ThreadsPerSocket = width
			cfg.Speculate = tc.speculate
			c := mustCluster(t, g, cfg)
			res, err := c.CountWith(pl, RunOpts{ThreadsPerSocket: budget})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count = %d, want %d", res.Count, want)
			}
			if tc.speculate && res.Summary.SpeculativeRanges == 0 {
				t.Fatal("no speculative copy ran against a 60x straggler")
			}
			if !tc.speculate && res.RecoveryRounds == 0 {
				t.Fatal("crash run reported no recovery rounds")
			}
			mu.Lock()
			defer mu.Unlock()
			mains := cfg.NumNodes * sockets
			if len(threads) <= mains {
				t.Fatalf("%d engines started, want more than the %d main engines", len(threads), mains)
			}
			for i, n := range threads {
				bound := budget // main engines: one per socket
				if i >= mains {
					bound = budget * sockets // whole-machine engines
				}
				if n > bound {
					t.Errorf("engine %d ran %d workers, budget allows %d (cluster width %d per socket)",
						i, n, bound, width)
				}
			}
		})
	}
}
