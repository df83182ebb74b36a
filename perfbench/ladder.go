package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/plan"
	"khuzdul/internal/service"
	"khuzdul/internal/setops"
)

// The traced run replays each workload's own inputs through every rung of
// the layer ladder, from the set kernels up to the resident service.
const (
	ladderRounds  = 3     // repetitions of each replay; the median is reported
	replayEdges   = 50000 // sampled edges per set-kernel pass
	replaySweeps  = 4     // sweeps over the sample per timed pass
	replayFetches = 200   // replayed fetches through the TCP fabric
	ladderSalt    = 0x1add
)

// ladderResult holds the replayed rungs. Quantities the timed phase already
// measured for this workload (service metrics for serve, cluster run times
// for batch) are copied in, so every workload reports every rung.
type ladderResult struct {
	nsPerElem  float64
	singleMS   float64
	engineMS   float64
	fetchP50US float64
	fetchMBps  float64
	runMS      []float64
	modeledMS  []float64
	execMS     []float64
	overheadMS []float64
	rejected   uint64
	activePeak uint64
	mismatches int
}

func ladder(w workload, e *env, ref []uint64, ph phase, seed int64, tr *tracer, parent int) (ladderResult, error) {
	var lad ladderResult
	rng := rand.New(rand.NewSource(seed ^ ladderSalt))
	var err error
	if lad.nsPerElem, err = replaySetops(e.g, e.plans[0].HubThreshold, rng, tr, parent); err != nil {
		return lad, err
	}
	var single, engine []float64
	for r := 0; r < ladderRounds; r++ {
		s, bad := replaySingle(e, ref, tr, parent)
		single = append(single, perOp(s, w.weights))
		lad.mismatches += bad
		en, bad, err := replayEngine(e, ref, tr, parent)
		if err != nil {
			return lad, err
		}
		engine = append(engine, perOp(en, w.weights))
		lad.mismatches += bad
	}
	lad.singleMS, lad.engineMS = median(single), median(engine)

	batch := 1
	if exchanges := ph.sum.Messages / 2; exchanges > 0 {
		batch = max(1, int(ph.sum.RemoteFetches/exchanges))
	}
	if lad.fetchP50US, lad.fetchMBps, err = replayFetch(e.g, batch, rng, tr, parent); err != nil {
		return lad, err
	}

	if w.serve {
		lad.execMS, lad.overheadMS = ph.execMS, ph.overheadMS
		lad.rejected, lad.activePeak = ph.rejected, ph.activePeak
		err = replayCluster(e, ref, &lad, tr, parent)
	} else {
		lad.runMS, lad.modeledMS = ph.runMS, ph.modeledMS
		err = replayService(w, e, ref, &lad, tr, parent)
	}
	return lad, err
}

// replaySetops times the skew-adaptive dispatcher on N(u)∩N(v) over a
// sample of the workload's own edges and returns nanoseconds per input
// element.
func replaySetops(g *graph.Graph, hub uint32, rng *rand.Rand, tr *tracer, parent int) (float64, error) {
	if g.NumEdges() == 0 {
		return 0, errors.New("perfbench: set-kernel replay needs a graph with edges")
	}
	type pair struct{ u, v graph.VertexID }
	pairs := make([]pair, 0, replayEdges)
	elems := 0
	for len(pairs) < replayEdges {
		u := graph.VertexID(rng.Intn(g.NumVertices()))
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		v := nb[rng.Intn(len(nb))]
		pairs = append(pairs, pair{u, v})
		elems += len(nb) + len(g.Neighbors(v))
	}
	dst := make([]graph.VertexID, 0, g.MaxDegree())
	var samples []float64
	matched := 0
	for r := 0; r < ladderRounds; r++ {
		d := setops.Dispatcher{HubThreshold: int(hub)}
		sp := tr.start("setops.Dispatcher.Intersect", parent, -1)
		t0 := time.Now()
		for s := 0; s < replaySweeps; s++ {
			for _, p := range pairs {
				dst = d.Intersect(dst[:0], g.Neighbors(p.u), g.Neighbors(p.v), p.u, p.v)
				matched += len(dst)
			}
		}
		el := time.Since(t0)
		tr.finish(sp)
		samples = append(samples, float64(el.Nanoseconds())/float64(replaySweeps*elems))
	}
	fmt.Fprintf(os.Stderr, "set-kernel replay: %d pairs, %d common neighbours per sweep\n", len(pairs), matched/(ladderRounds*replaySweeps))
	return median(samples), nil
}

// perOp turns per-plan times into the time of one op: a batch op runs every
// plan, a serve query runs one drawn with the given weights.
func perOp(planMS []float64, weights []int) float64 {
	var sum, wsum float64
	for i, t := range planMS {
		w := 1.0
		if weights != nil {
			w = float64(weights[i])
			wsum += w
		}
		sum += w * t
	}
	if weights == nil {
		return sum
	}
	return sum / wsum
}

// replaySingle counts every plan single-threaded with plan.CountGraph, the
// plain baseline the distributed engine's cost is framed against. It
// returns each plan's time and the number of wrong counts.
func replaySingle(e *env, ref []uint64, tr *tracer, parent int) ([]float64, int) {
	var times []float64
	bad := 0
	for i, pl := range e.plans {
		sp := tr.start("plan.CountGraph", parent, -1)
		t0 := time.Now()
		n := plan.CountGraph(pl, e.g)
		times = append(times, ms(time.Since(t0)))
		tr.finish(sp)
		if n != ref[i] {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: plan.CountGraph of %d counted %d, reference %d\n", i, n, ref[i])
		}
	}
	return times, bad
}

// localSource serves a whole graph to one engine: every list is local.
type localSource struct {
	g     *graph.Graph
	roots []graph.VertexID
}

var errAllLocal = errors.New("perfbench: local source has no remote lists")

func (s *localSource) Classify(graph.VertexID) (core.Locality, int)      { return core.LocalityLocal, 0 }
func (s *localSource) LocalList(v graph.VertexID) []graph.VertexID       { return s.g.Neighbors(v) }
func (s *localSource) CrossSocketList(v graph.VertexID) []graph.VertexID { return s.g.Neighbors(v) }
func (s *localSource) Fetch(int, []graph.VertexID) ([][]graph.VertexID, error) {
	return nil, errAllLocal
}
func (s *localSource) NumNodes() int                      { return 1 }
func (s *localSource) LocalNode() int                     { return 0 }
func (s *localSource) Roots() []graph.VertexID            { return s.roots }
func (s *localSource) Label(v graph.VertexID) graph.Label { return s.g.Label(v) }

// replayEngine runs every plan through one core.Engine, one thread, over an
// all-local source: the BFS-DFS engine without partitioning or fabric. It
// returns each plan's time and the number of wrong counts.
func replayEngine(e *env, ref []uint64, tr *tracer, parent int) ([]float64, int, error) {
	src := &localSource{g: e.g, roots: make([]graph.VertexID, e.g.NumVertices())}
	for i := range src.roots {
		src.roots[i] = graph.VertexID(i)
	}
	var labelOf plan.LabelFunc
	if e.g.Labeled() {
		labelOf = e.g.Label
	}
	var times []float64
	bad := 0
	for i, pl := range e.plans {
		sink := &core.CountSink{}
		eng := core.NewEngine(core.NewPlanExtender(pl, labelOf), src, sink, core.Config{Threads: 1, HDS: true})
		sp := tr.start("core.Engine.Run", parent, -1)
		t0 := time.Now()
		err := eng.Run()
		times = append(times, ms(time.Since(t0)))
		tr.finish(sp)
		if err != nil {
			return nil, bad, fmt.Errorf("perfbench: engine: %w", err)
		}
		if sink.Count() != ref[i] {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: core.Engine of %d counted %d, reference %d\n", i, sink.Count(), ref[i])
		}
	}
	return times, bad, nil
}

// replayFetch sends fetches of the workload's mean batch size through a
// two-node TCP fabric and returns the median fetch time in microseconds and
// the wire throughput in MB/s.
func replayFetch(g *graph.Graph, batch int, rng *rand.Rand, tr *tracer, parent int) (float64, float64, error) {
	serve := comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		lists := make([][]graph.VertexID, len(ids))
		for i, v := range ids {
			lists[i] = g.Neighbors(v)
		}
		return lists
	})
	sp := tr.start("comm.NewTCP", parent, -1)
	fab, err := comm.NewTCP([]comm.Server{serve, serve}, metrics.NewCluster(2))
	tr.finish(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("perfbench: fabric: %w", err)
	}
	defer fab.Close()
	ids := make([]graph.VertexID, batch)
	for i := range ids {
		ids[i] = graph.VertexID(rng.Intn(g.NumVertices()))
	}
	// The first fetch dials the connection; it is not part of the replay.
	if _, err := fab.Fetch(0, 1, ids); err != nil {
		return 0, 0, fmt.Errorf("perfbench: fetch: %w", err)
	}
	var us []float64
	var total time.Duration
	var bytes uint64
	for i := 0; i < replayFetches; i++ {
		sp := tr.start("comm.TCP.Fetch", parent, -1)
		t0 := time.Now()
		lists, err := fab.Fetch(0, 1, ids)
		el := time.Since(t0)
		tr.finish(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("perfbench: fetch: %w", err)
		}
		us = append(us, float64(el.Nanoseconds())/1e3)
		total += el
		bytes += comm.RequestBytes(len(ids)) + comm.ResponseBytes(lists)
	}
	return median(us), float64(bytes) / 1e6 / total.Seconds(), nil
}

// replayService serves a batch workload's op through a resident server over
// the same cluster: one warm-up round by pattern name, then ladderRounds
// rounds resubmitting the compiled plans by ID.
func replayService(w workload, e *env, ref []uint64, lad *ladderResult, tr *tracer, parent int) error {
	sp := tr.start("service.New", parent, -1)
	srv, err := service.New(e.cl, service.Config{})
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("perfbench: serve: %w", err)
	}
	defer srv.Close()
	sp = tr.start("service.Dial", parent, -1)
	c, err := service.Dial(srv.Addr(), 0)
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("perfbench: dial: %w", err)
	}
	defer c.Close()
	specs := make([]service.Spec, len(w.patterns))
	for i, name := range w.patterns {
		out, err := c.Run(service.Spec{Pattern: name, System: systemUnderTest})
		if err != nil {
			return fmt.Errorf("perfbench: service warm-up %s: %w", name, err)
		}
		specs[i] = service.Spec{PlanID: out.PlanID, System: systemUnderTest}
	}
	for r := 0; r < ladderRounds; r++ {
		var exec time.Duration
		t0 := time.Now()
		for i, spec := range specs {
			sp := tr.start("service.Client.Run", parent, -1)
			out, err := c.Run(spec)
			tr.finish(sp)
			if err != nil {
				return fmt.Errorf("perfbench: service replay: %w", err)
			}
			if out.Count != ref[i] {
				lad.mismatches++
				fmt.Fprintf(os.Stderr, "perfbench: service replay of %s counted %d, reference %d\n", w.patterns[i], out.Count, ref[i])
			}
			exec += out.Elapsed
		}
		lad.execMS = append(lad.execMS, ms(exec))
		lad.overheadMS = append(lad.overheadMS, ms(time.Since(t0))-ms(exec))
	}
	lad.rejected = srv.Metrics().QueriesRejected.Load()
	lad.activePeak = srv.Metrics().ActiveQueryPeak.Load()
	return nil
}

// replayCluster runs each of the serve mix's plans straight on the cluster,
// bypassing the service, for the cluster rung of the serve workload.
func replayCluster(e *env, ref []uint64, lad *ladderResult, tr *tracer, parent int) error {
	for r := 0; r < ladderRounds; r++ {
		for i, pl := range e.plans {
			sp := tr.start("cluster.Count", parent, -1)
			res, err := e.cl.Count(pl)
			tr.finish(sp)
			if err != nil {
				return fmt.Errorf("perfbench: cluster replay: %w", err)
			}
			if res.Count != ref[i] {
				lad.mismatches++
				fmt.Fprintf(os.Stderr, "perfbench: cluster replay of %d counted %d, reference %d\n", i, res.Count, ref[i])
			}
			lad.runMS = append(lad.runMS, ms(res.Elapsed))
			lad.modeledMS = append(lad.modeledMS, ms(res.ModeledElapsed))
		}
	}
	return nil
}

// perLayerValues derives the per-layer metrics of a traced run.
func perLayerValues(ph phase, lad ladderResult, latP50, compileMS float64) (map[string]float64, error) {
	perOp := float64(max(ph.t.ok(), 1))
	s, b := ph.sum, ph.sum.Breakdown
	per := func(n uint64) float64 { return float64(n) / perOp }
	lag, err := percentile(append([]float64(nil), ph.lagMS...), 0.9)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setops.merge_per_op":           per(s.KernelMerge),
		"setops.gallop_per_op":          per(s.KernelGallop),
		"setops.bitmap_per_op":          per(s.KernelBitmap),
		"setops.pivot_per_op":           per(s.KernelPivot),
		"setops.replay_ns_per_elem":     lad.nsPerElem,
		"plan.compile_ms":               compileMS,
		"plan.single_ms":                lad.singleMS,
		"cluster.cost_ratio":            latP50 / lad.singleMS,
		"core.engine_ms":                lad.engineMS,
		"core.extensions_per_op":        per(s.Extensions),
		"core.vertical_hits_per_op":     per(s.VerticalHits),
		"core.hds_hits_per_op":          per(s.HDSHits),
		"core.peak_embeddings":          float64(s.PeakEmbeddings),
		"core.compute_ms_per_op":        ms(b.Compute) / perOp,
		"core.scheduler_ms_per_op":      ms(b.Scheduler) / perOp,
		"cache.hit_rate":                s.CacheHitRate(),
		"cache.ms_per_op":               ms(b.Cache) / perOp,
		"comm.network_ms_per_op":        ms(b.Network) / perOp,
		"comm.remote_fetches_per_op":    per(s.RemoteFetches),
		"comm.messages_per_op":          per(s.Messages),
		"comm.pipelined_fetches_per_op": per(s.PipelinedFetches),
		"comm.inflight_peak":            float64(s.InFlightPeak),
		"comm.replay_fetch_p50_us":      lad.fetchP50US,
		"comm.replay_mb_per_s":          lad.fetchMBps,
		"cluster.run_ms_p50":            median(lad.runMS),
		"cluster.modeled_ms":            median(lad.modeledMS),
		"cluster.imbalance":             median(ph.imbalance),
		"service.exec_ms_p50":           median(lad.execMS),
		"service.overhead_ms_p50":       median(lad.overheadMS),
		"service.rejected":              float64(lad.rejected),
		"service.active_peak":           float64(lad.activePeak),
		"loadgen.lag_ms_p90":            lag,
		"trace.overhead_ratio":          median(ph.traced) / median(ph.untraced),
	}, nil
}
