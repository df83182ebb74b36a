package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/metrics"
	"khuzdul/internal/service"
)

const (
	// serveClients is the number of client connections; each runs a closed
	// loop of one query at a time.
	serveClients = 2
	// orderSalt separates the pattern order from the graph generator, which
	// takes the same seed.
	orderSalt = 0x5eed
)

// warmServe starts the resident server over the env's cluster, dials the
// clients, and runs every pattern once by name so the timed phase can
// resubmit compiled plans by ID against a warm cache.
func warmServe(w workload, e *env, tr *tracer, parent int) error {
	sp := tr.start("service.New", parent, -1)
	srv, err := service.New(e.cl, service.Config{})
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("perfbench: serve: %w", err)
	}
	e.srv = srv
	for i := 0; i < serveClients; i++ {
		sp := tr.start("service.Dial", parent, -1)
		c, err := service.Dial(srv.Addr(), 0)
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("perfbench: dial: %w", err)
		}
		e.clients = append(e.clients, c)
	}
	for i, name := range w.patterns {
		sp := tr.start("service.Client.Run", parent, -1)
		out, err := e.clients[i%serveClients].Run(service.Spec{Pattern: name, System: systemUnderTest})
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("perfbench: warm-up %s: %w", name, err)
		}
		if out.PlanID == 0 {
			return fmt.Errorf("perfbench: warm-up %s: server returned no plan ID", name)
		}
		e.planIDs = append(e.planIDs, out.PlanID)
		e.warm = append(e.warm, out.Count)
	}
	return nil
}

// patternOrder deals n patterns from seeded shuffles of a deck holding
// pattern i weights[i] times, so any prefix of whole decks gives every
// pattern its exact share of the load; independent draws would move the
// quantiles between patterns from seed to seed.
func patternOrder(seed int64, n int, weights []int) []int {
	rng := rand.New(rand.NewSource(seed ^ orderSalt))
	var mix []int
	for p, w := range weights {
		for ; w > 0; w-- {
			mix = append(mix, p)
		}
	}
	out := make([]int, 0, n+len(mix))
	for len(out) < n {
		for _, j := range rng.Perm(len(mix)) {
			out = append(out, mix[j])
		}
	}
	return out[:n]
}

// maxQueries caps a serve run's query count (its pattern order is dealt up
// front); two clients cannot finish this many in maxTimed.
const maxQueries = 1 << 15

// queryRecord is what one query produced.
type queryRecord struct {
	pattern    int
	out        service.Outcome
	err        error
	start, end time.Time
	lag        time.Duration // since this client's previous query returned
}

// serveLoop runs one closed loop per client connection: each client submits
// the next query of the shared pattern order as soon as its previous one
// returns, for at least the given time and at least minOps queries. In the
// traced run every other query is recorded with spans.
func serveLoop(w workload, e *env, ref []uint64, seed int64, seconds time.Duration, tr *tracer, parent int) phase {
	order := patternOrder(seed, maxQueries, w.weights)
	recs := make([]queryRecord, maxQueries)
	e.cl.Metrics().Reset()
	met := e.srv.Metrics()
	rejected0 := met.QueriesRejected.Load()

	var ph phase
	var next atomic.Int64
	var wg sync.WaitGroup
	alloc0, _ := memAfter()
	t0 := time.Now()
	mon := startStealMonitor(t0)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(cl *service.Client) {
			defer wg.Done()
			due := t0
			for {
				i := int(next.Add(1) - 1)
				el := time.Since(t0)
				if i >= maxQueries || (el >= seconds && i >= minOps) || el >= maxTimed {
					return
				}
				opTr := tr
				if i%2 == 1 {
					opTr = nil
				}
				start := time.Now()
				sp := opTr.start("service.Client.Run", parent, i)
				out, err := cl.Run(service.Spec{PlanID: e.planIDs[order[i]], System: systemUnderTest})
				end := time.Now()
				opTr.finish(sp)
				recs[i] = queryRecord{pattern: order[i], out: out, err: err, start: start, end: end, lag: start.Sub(due)}
				due = end
			}
		}(e.clients[c])
	}
	wg.Wait()
	ph.end = time.Since(t0)
	ph.steal = windowSteal(mon.stop(), ph.end)
	alloc1, heap := memAfter()
	ph.alloc, ph.heapSys = alloc1-alloc0, heap

	n := min(int(next.Load()), maxQueries)
	for i, r := range recs[:n] {
		if r.end.IsZero() {
			continue // claimed after the deadline, never run
		}
		ph.t.attempted++
		ph.lagMS = append(ph.lagMS, ms(r.lag))
		switch {
		case errors.Is(r.err, service.ErrRejected):
			ph.t.refused++
			continue
		case r.err != nil:
			ph.t.errored++
			fmt.Fprintf(os.Stderr, "perfbench: query %d: %v\n", i, r.err)
			continue
		case r.out.Count != ref[r.pattern]:
			ph.t.mismatched++
			fmt.Fprintf(os.Stderr, "perfbench: query %d (%s) counted %d, reference %d\n",
				i, w.patterns[r.pattern], r.out.Count, ref[r.pattern])
			continue
		}
		lat := ms(r.end.Sub(r.start))
		ph.ops = append(ph.ops, opSpan{start: r.start.Sub(t0), end: r.end.Sub(t0), ms: lat})
		exec := ms(r.out.Elapsed)
		ph.lat = append(ph.lat, lat)
		ph.execMS = append(ph.execMS, exec)
		ph.overheadMS = append(ph.overheadMS, lat-exec)
		if tr != nil && i%2 == 0 {
			ph.traced = append(ph.traced, lat)
		} else if tr != nil {
			ph.untraced = append(ph.untraced, lat)
		}
	}
	ph.sum = e.cl.Metrics().Summarize()
	ph.imbalance = []float64{imbalance(nodeBusy(e.cl.Metrics()))}
	ph.rejected = met.QueriesRejected.Load() - rejected0
	ph.activePeak = met.ActiveQueryPeak.Load()
	return ph
}

// nodeBusy returns each node's accumulated busy time.
func nodeBusy(m *metrics.Cluster) []time.Duration {
	busy := make([]time.Duration, len(m.Nodes))
	for i, n := range m.Nodes {
		busy[i] = n.Breakdown().Total()
	}
	return busy
}
