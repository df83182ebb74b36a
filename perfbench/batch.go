package main

import (
	"fmt"
	"os"
	"time"

	"khuzdul/internal/cluster"
)

// setup builds one env: graph, cluster, plans and one warm-up op (for serve:
// server, client connections and a warm-up round). It returns the time the
// plan compile took on its own, and the env even on error, for closing.
func setup(w workload, seed int64, tr *tracer, parent int) (*env, time.Duration, error) {
	e := &env{}
	sp := tr.start("graph.RMAT", parent, -1)
	g, err := w.buildGraph(1, seed)
	tr.finish(sp)
	if err != nil {
		return e, 0, err
	}
	e.g = g
	sp = tr.start("cluster.New", parent, -1)
	e.cl, err = cluster.New(g, w.clusterConfig())
	tr.finish(sp)
	if err != nil {
		return e, 0, fmt.Errorf("perfbench: cluster: %w", err)
	}
	sp = tr.start("apps.Compile", parent, -1)
	t0 := time.Now()
	e.plans, err = w.compile(systemUnderTest, g)
	compile := time.Since(t0)
	tr.finish(sp)
	if err != nil {
		return e, 0, err
	}
	if w.serve {
		err = warmServe(w, e, tr, parent)
	} else {
		var res []cluster.Result
		res, err = batchOp(e, tr, parent, -1)
		e.warm = countsOf(res)
	}
	return e, compile, err
}

// batchOp is one mining job: Count of the workload's single plan. It
// returns the result as a one-element slice, shaped like the per-pattern
// reference counts.
func batchOp(e *env, tr *tracer, parent, op int) ([]cluster.Result, error) {
	sp := tr.start("cluster.Count", parent, op)
	res, err := e.cl.Count(e.plans[0])
	tr.finish(sp)
	if err != nil {
		return nil, fmt.Errorf("perfbench: count: %w", err)
	}
	return []cluster.Result{res}, nil
}

func countsOf(res []cluster.Result) []uint64 {
	c := make([]uint64, len(res))
	for i, r := range res {
		c[i] = r.Count
	}
	return c
}

// batchLoop is the closed loop: one job at a time, the next as soon as the
// previous returns, for at least the given time and at least minOps jobs.
// In the traced run every other job is recorded with spans.
func batchLoop(e *env, ref []uint64, seconds time.Duration, tr *tracer, parent int) phase {
	var ph phase
	alloc0, _ := memAfter()
	t0 := time.Now()
	mon := startStealMonitor(t0)
	due := t0
	for i := 0; ; i++ {
		el := time.Since(t0)
		if (el >= seconds && i >= minOps) || el >= maxTimed {
			break
		}
		opTr := tr
		if i%2 == 1 {
			opTr = nil
		}
		start := time.Now()
		ph.lagMS = append(ph.lagMS, ms(start.Sub(due)))
		res, err := batchOp(e, opTr, parent, i)
		end := time.Now()
		due = end
		ph.t.attempted++
		switch {
		case err != nil:
			ph.t.errored++
			fmt.Fprintln(os.Stderr, err)
			continue
		case !equalCounts(countsOf(res), ref):
			ph.t.mismatched++
			fmt.Fprintf(os.Stderr, "perfbench: op %d counted %v, reference %v\n", i, countsOf(res), ref)
			continue
		}
		ph.addBatchResult(res)
		lat := ms(end.Sub(start))
		ph.ops = append(ph.ops, opSpan{start: start.Sub(t0), end: end.Sub(t0), ms: lat})
		ph.lat = append(ph.lat, lat)
		if tr != nil && opTr != nil {
			ph.traced = append(ph.traced, lat)
		} else if tr != nil {
			ph.untraced = append(ph.untraced, lat)
		}
	}
	ph.end = time.Since(t0)
	ph.steal = windowSteal(mon.stop(), ph.end)
	alloc1, heap := memAfter()
	ph.alloc, ph.heapSys = alloc1-alloc0, heap
	return ph
}

// addBatchResult folds one job's per-pattern results into the phase.
func (ph *phase) addBatchResult(res []cluster.Result) {
	var elapsed, modeled time.Duration
	var busy []time.Duration
	for _, r := range res {
		ph.sum.Merge(r.Summary)
		elapsed += r.Elapsed
		modeled += r.ModeledElapsed
		if busy == nil {
			busy = make([]time.Duration, len(r.PerNode))
		}
		for n, b := range r.PerNode {
			busy[n] += b.Total()
		}
	}
	ph.runMS = append(ph.runMS, ms(elapsed))
	ph.modeledMS = append(ph.modeledMS, ms(modeled))
	ph.imbalance = append(ph.imbalance, imbalance(busy))
}

// imbalance is the busiest node's busy time over the mean.
func imbalance(busy []time.Duration) float64 {
	var sum, top time.Duration
	for _, b := range busy {
		sum += b
		top = max(top, b)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(busy)) / float64(sum)
}
