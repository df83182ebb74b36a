package main

import (
	"fmt"

	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// workload is one seeded input set. Graph shapes follow the harness
// presets (n, m, R-MAT skew a, label alphabet); the seed replaces the
// presets' fixed generator seeds.
type workload struct {
	name      string
	n         int
	m         uint64
	a         float64
	labels    int
	patterns  []string // pattern.Parse names; a batch workload counts one
	weights   []int    // serve: each pattern's share of the queries
	transport cluster.Transport
	serve     bool
}

// System under test; the reference counts come from the other client
// system so a compiler bug in one cannot hide in both.
const (
	systemUnderTest = apps.KGraphPi
	systemOracle    = apps.KAutomine
)

// Cluster shape shared by every workload: 4 machines × 1 thread, static
// cache at 10% of the graph with the CLI's admission threshold.
const (
	numNodes      = 4
	threads       = 1
	cacheFraction = 0.1
	cacheDegree   = 8
)

var workloads = []workload{
	{
		// Compute-bound: all three two-way kernels fire, chan fetches are
		// served in-process, so setops/plan/core changes show and comm
		// changes should not.
		name: "clique4-lj-chan", n: 12000, m: 108000, a: 0.57, labels: 8,
		patterns: []string{"K4"}, transport: cluster.TransportChan,
	},
	{
		// Resident service with concurrent clients: many short runs share
		// one warm cache and the TCP mux through admission control, so
		// service, comm and cache changes show here. The graph is
		// the mc preset at 0.4 scale. The weights put each reported
		// quantile in the middle of one pattern's latencies, never on the
		// edge between two patterns, where a quantile follows the extremes
		// of both: by latency the patterns rank wedge < triangle < diamond
		// < K4 < tailed-triangle < C4, so wedge and triangle hold the
		// fastest 30% of the queries, diamond the next 40% (the p50 is its
		// median) and C4 the slowest 20% (the p90 is its median).
		name: "serve-mix-tcp", n: 1200, m: 13200, a: 0.55, labels: 5,
		patterns:  []string{"triangle", "wedge", "K4", "diamond", "C4", "tailed-triangle"},
		weights:   []int{3, 3, 1, 8, 4, 1},
		transport: cluster.TransportTCP, serve: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("perfbench: unknown workload %q (have %v)", name, names)
}

// buildGraph generates the workload's graph at the given scale (1 = full).
func (w workload) buildGraph(scale float64, seed int64) (*graph.Graph, error) {
	n := int(float64(w.n) * scale)
	m := uint64(float64(w.m) * scale)
	rest := (1 - w.a) / 3
	g := graph.RMAT(n, m, w.a, rest, rest, seed)
	if w.labels == 0 {
		return g, nil
	}
	lg, err := g.WithLabels(graph.RandomLabels(g.NumVertices(), w.labels, seed+1))
	if err != nil {
		return nil, fmt.Errorf("perfbench: label graph: %w", err)
	}
	return lg, nil
}

func (w workload) parsePatterns() ([]*pattern.Pattern, error) {
	pats := make([]*pattern.Pattern, len(w.patterns))
	for i, name := range w.patterns {
		p, err := pattern.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %w", err)
		}
		pats[i] = p
	}
	return pats, nil
}

// compile builds one plan per pattern with the given client system.
func (w workload) compile(sys apps.System, g *graph.Graph) ([]*plan.Plan, error) {
	pats, err := w.parsePatterns()
	if err != nil {
		return nil, err
	}
	pls := make([]*plan.Plan, len(pats))
	for i, p := range pats {
		pl, err := apps.Compile(sys, p, g, apps.CompileOptions{})
		if err != nil {
			return nil, fmt.Errorf("perfbench: compile %s: %w", w.patterns[i], err)
		}
		pls[i] = pl
	}
	return pls, nil
}

// reference returns each pattern's count from single-threaded
// plan.CountGraph over the oracle system's plans.
func (w workload) reference(g *graph.Graph) ([]uint64, error) {
	pls, err := w.compile(systemOracle, g)
	if err != nil {
		return nil, err
	}
	ref := make([]uint64, len(pls))
	for i, pl := range pls {
		ref[i] = plan.CountGraph(pl, g)
	}
	return ref, nil
}

func (w workload) clusterConfig() cluster.Config {
	return cluster.Config{
		NumNodes:             numNodes,
		ThreadsPerSocket:     threads,
		CacheFraction:        cacheFraction,
		CacheDegreeThreshold: cacheDegree,
		Transport:            w.transport,
		SharedCache:          w.serve,
	}
}
