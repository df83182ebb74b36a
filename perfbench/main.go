// Command perfbench is the repository benchmark: it runs one seeded graph
// pattern mining workload against the engine for a fixed time, checks every
// result against a reference count, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) with their units. The last line of
// standard output is one JSON object. Run it through run.py from the
// repository root:
//
//	python3 perfbench/run.py --workload clique4-lj-chan --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"khuzdul/internal/cluster"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/plan"
	"khuzdul/internal/service"
)

const (
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median, and the last set-up serves the timed phase.
	setupReps = 9
	// minOps keeps a closed loop going past -seconds until its p90 has
	// minBeyond samples above it.
	minOps = 100
	// maxTimed stops a closed loop that cannot reach minOps, so the run
	// still exits well inside its time limit (and then fails the p90 rule).
	maxTimed = 140 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "minimum length of the timed phase in seconds")
	traceOn := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the span file of a traced run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// env is one set-up of a workload: everything the timed phase needs.
type env struct {
	g     *graph.Graph
	cl    *cluster.Cluster
	plans []*plan.Plan
	// serve only: the resident server, its client connections, and the
	// plan IDs the warm-up round registered, in workload pattern order.
	srv     *service.Server
	clients []*service.Client
	planIDs []uint32
	// warm holds the per-pattern counts of the warm-up op, checked against
	// the reference once it is known.
	warm []uint64
}

// close releases whatever the env holds; a nil env holds nothing.
func (e *env) close() {
	if e == nil {
		return
	}
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.cl != nil {
		e.cl.Close()
	}
}

// phase is what a timed phase measured.
type phase struct {
	t        tally
	lat      []float64     // ms per op that returned the right count
	ops      []opSpan      // the same ops' start and end
	end      time.Duration // length of the phase
	steal    []float64     // share of the host's CPU time stolen in each quietWindow
	traced   []float64     // ms of the ops recorded with spans (traced run)
	untraced []float64     // ms of the ops recorded without spans (traced run)
	lagMS    []float64     // how late each op started
	alloc    uint64        // TotalAlloc delta over the phase
	heapSys  uint64        // HeapSys at the end of the phase

	sum       metrics.Summary
	imbalance []float64 // per op (batch) or once (serve): max/mean node busy time
	runMS     []float64 // batch: time inside Count per op
	modeledMS []float64 // batch: ModeledElapsed per op
	// serve only
	execMS     []float64 // Outcome.Elapsed per completed query
	overheadMS []float64 // client latency minus Outcome.Elapsed
	rejected   uint64
	activePeak uint64
}

func run(name string, seed int64, seconds time.Duration, traced bool, outDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	root := tr.start("bench.run", 0, -1)

	var e *env
	defer func() { e.close() }()
	var setupS, compileMS []float64
	for i := 0; i < setupReps; i++ {
		var warm []uint64
		if e != nil {
			warm = e.warm
			e.close()
		}
		sp := tr.start("bench.setup", root, -1)
		t0 := time.Now()
		var compile time.Duration
		e, compile, err = setup(w, seed, tr, sp)
		d := time.Since(t0)
		tr.finish(sp)
		if err != nil {
			return err
		}
		if warm != nil && !equalCounts(warm, e.warm) {
			return fmt.Errorf("perfbench: warm-up counts differ between set-ups: %v vs %v", warm, e.warm)
		}
		setupS = append(setupS, d.Seconds())
		compileMS = append(compileMS, ms(compile))
	}

	sp := tr.start("bench.oracle", root, -1)
	osp := tr.start("plan.CountGraph", sp, -1)
	ref, err := w.reference(e.g)
	tr.finish(osp)
	tr.finish(sp)
	if err != nil {
		return err
	}
	correct := equalCounts(e.warm, ref)
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: warm-up counts %v, reference %v\n", e.warm, ref)
	}

	runtime.GC()
	sp = tr.start("bench.timed", root, -1)
	var ph phase
	if w.serve {
		ph = serveLoop(w, e, ref, seed, seconds, tr, sp)
	} else {
		ph = batchLoop(e, ref, seconds, tr, sp)
	}
	tr.finish(sp)
	// Admission refusals are measured behaviour; any other failure is not.
	correct = correct && ph.t.mismatched == 0 && ph.t.errored == 0
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops attempted, %d ok, %d refused, %d errored, %d wrong\n",
		w.name, seed, ph.t.attempted, ph.t.ok(), ph.t.refused, ph.t.errored, ph.t.mismatched)

	quiet, rate := quietOps(ph.ops, ph.steal, ph.end, max(minOps, len(ph.ops)/2))
	fmt.Fprintf(os.Stderr, "timing metrics over %d of %d correct ops (quiet windows: at most %g%% steal, then the least stolen)\n",
		len(quiet), len(ph.ops), 100*maxSteal)

	vals, err := endToEndValues(ph, quiet, rate, setupS)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		sp = tr.start("bench.ladder", root, -1)
		lad, err := ladder(w, e, ref, ph, seed, tr, sp)
		tr.finish(sp)
		if err != nil {
			return err
		}
		if lad.mismatches > 0 {
			correct = false
		}
		defs = perLayer
		if vals, err = perLayerValues(ph, lad, vals["latency_p50_ms"], median(compileMS)); err != nil {
			return err
		}
		tr.finish(root)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("perfbench: %w", err)
		}
		spans := tr.snapshot()
		printSelfTimes(spans)
		if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed)), spans); err != nil {
			return err
		}
	}
	if err := report(os.Stdout, defs, vals, correct, ph.t.attempted, ph.t.failed()); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("perfbench: %s produced a wrong count", w.name)
	}
	return nil
}

func equalCounts(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// endToEndValues derives the user-facing metrics from a timed phase; the
// timing metrics come from the latencies and completion rate of the ops in
// its quiet windows (see quietOps).
func endToEndValues(ph phase, quiet []float64, rate float64, setupS []float64) (map[string]float64, error) {
	perOp := float64(max(ph.t.ok(), 1))
	p50 := median(append([]float64(nil), quiet...))
	p90, err := percentile(append([]float64(nil), quiet...), 0.9)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":         median(setupS),
		"latency_p50_ms":  p50,
		"latency_p90_ms":  p90,
		"ops_per_s":       rate,
		"ok_ratio":        ph.t.okRatio(),
		"wire_mb_per_op":  float64(ph.sum.BytesSent) / 1e6 / perOp,
		"alloc_mb_per_op": float64(ph.alloc) / 1e6 / perOp,
		"peak_heap_mb":    float64(ph.heapSys) / 1e6,
	}, nil
}

// memAfter reads the allocation total and heap size at a phase boundary.
// HeapSys never shrinks (pages returned to the OS stay counted, as
// HeapReleased), so its end-of-phase value is the phase's high-water mark.
func memAfter() (totalAlloc, heapSys uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.HeapSys
}

func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		fmt.Fprintf(os.Stderr, "self time %-8s %10.1f ms\n", layer, ms(self[layer]))
	}
}
