// Straggler speculation. A machine slowed by a degraded disk, a noisy
// neighbor or an injected slowdown stretches the whole run: every other
// machine finishes its partition and idles while the straggler grinds on.
// The driver samples each engine's completed-root prefix, and once idle
// survivors exist it re-executes the slowest engine's unfinished root
// suffix on one of them, served from the full in-process graph (the same
// shard-reload stand-in task recovery uses). Both copies keep running;
// whichever completes the tail first wins.
//
// Exactness is the point. Engines complete root ranges strictly in order at
// ChunkSize granularity, so the straggler's checkpoints and the speculative
// copy's checkpoints land on the same global range boundaries (the copy
// starts at a boundary p and advances by the same ChunkSize). When the copy
// finishes first, the straggler is cancelled and stops at some boundary
// q ≥ p; the slot's exact total is then
//
//	committed(straggler, q) + spec(total) − spec(q)
//
// — every root in [0, q) counted once by the straggler, every root in
// [q, total) once by the copy, regardless of when the cancellation lands.
// When the straggler finishes first (or the copy fails), the copy is
// cancelled and its counts are discarded wholesale. Either way the result
// is bit-identical to a run without speculation.
package cluster

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/plan"
)

// specTick is the monitor's sampling period. Sampling only reads per-slot
// checkpoint pairs, so the period trades reaction latency against nothing
// measurable.
const specTick = 10 * time.Millisecond

// specTracker records a speculative copy's committed count at every global
// range boundary it crosses. Keys are indices into the straggler's full
// root list (the copy starts at base), so the reconciliation in overrides
// can subtract at the straggler's own stopping boundary.
type specTracker struct {
	sink *core.CountSink
	base int
	met  *metrics.Node

	mu   sync.Mutex
	hist map[int]uint64
}

func newSpecTracker(base int, met *metrics.Node) *specTracker {
	return &specTracker{
		sink: &core.CountSink{},
		base: base,
		met:  met,
		hist: map[int]uint64{base: 0},
	}
}

func (t *specTracker) onRangeDone(start, end int) {
	n := t.sink.Count()
	t.mu.Lock()
	t.hist[t.base+end] = n
	t.mu.Unlock()
	if t.met != nil {
		t.met.SpeculativeRanges.Add(1)
	}
}

// at returns the committed count at global boundary p.
func (t *specTracker) at(p int) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.hist[p]
	return n, ok
}

// specRun is one speculative re-execution: the straggler slot it shadows,
// the survivor hosting it, and the boundary it started from.
type specRun struct {
	slot    int
	node    int
	base    int
	total   int
	tracker *specTracker
	cancel  atomic.Bool
	err     error // written by the spec goroutine before done closes
	done    chan struct{}
}

// speculator is the per-run straggler speculation controller. It owns the
// monitor goroutine, the per-slot cancellation flags the main engines poll,
// and the speculative engines themselves.
type speculator struct {
	c           *Cluster
	pl          *plan.Plan
	labelOf     plan.LabelFunc
	edgeLabelOf plan.EdgeLabelFunc
	// fo is the failover snapshot the run launched with (nil before any
	// node has ever died); root lists must match the main engines'.
	fo *failover
	// opts is the run's options; copies keep its worker budget.
	opts RunOpts

	slots  int
	cancel []atomic.Bool // straggler-side cancel flags, polled via Canceled
	// cancelCh mirrors cancel as per-slot channels so blocking waits (fetch
	// retry backoffs via comm.CancelFetcher) unblock the moment a copy wins,
	// instead of discovering the flag at the next range boundary.
	cancelCh []chan struct{}

	trackers []*rangeTracker
	roots    [][]graph.VertexID
	began    time.Time

	mu    sync.Mutex
	done  []bool
	errs  []error
	specs map[int]*specRun // by straggler slot
	tried []bool           // at most one speculative copy per slot
	busy  []bool           // nodes currently hosting a copy

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newSpeculator(c *Cluster, pl *plan.Plan, labelOf plan.LabelFunc, edgeLabelOf plan.EdgeLabelFunc, opts RunOpts) *speculator {
	slots := c.cfg.NumNodes * c.cfg.Sockets
	cancelCh := make([]chan struct{}, slots)
	for i := range cancelCh {
		cancelCh[i] = make(chan struct{})
	}
	return &speculator{
		c:           c,
		pl:          pl,
		labelOf:     labelOf,
		edgeLabelOf: edgeLabelOf,
		opts:        opts,
		slots:       slots,
		cancel:      make([]atomic.Bool, slots),
		cancelCh:    cancelCh,
		done:        make([]bool, slots),
		errs:        make([]error, slots),
		specs:       make(map[int]*specRun),
		tried:       make([]bool, slots),
		busy:        make([]bool, c.cfg.NumNodes),
		stopCh:      make(chan struct{}),
	}
}

// canceled is the Config.Canceled hook for one main engine slot.
func (s *speculator) canceled(slot int) bool { return s.cancel[slot].Load() }

// cancelChan returns the channel closed when slot's speculative copy wins;
// the slot's fetches select on it during retry backoffs.
func (s *speculator) cancelChan(slot int) <-chan struct{} { return s.cancelCh[slot] }

// cancelSlot raises slot's cancel flag and closes its channel exactly once.
func (s *speculator) cancelSlot(slot int) {
	if s.cancel[slot].CompareAndSwap(false, true) {
		close(s.cancelCh[slot])
	}
}

// begin arms the monitor once every slot's checkpoint tracker is known.
// Without full tracking (some sink is not a counting sink) speculation
// cannot reconcile counts, so the speculator stays inert.
func (s *speculator) begin(trackers []*rangeTracker) {
	if !allTracked(trackers) {
		return
	}
	s.trackers = trackers
	s.roots = make([][]graph.VertexID, s.slots)
	for slot := range s.roots {
		s.roots[slot] = s.c.rootsOf(s.fo, slot/s.c.cfg.Sockets, slot%s.c.cfg.Sockets)
	}
	s.began = time.Now()
	s.wg.Add(1)
	go s.run()
}

// slotDone records a main engine's completion. Its speculative copy, if
// any, is cancelled: either the straggler won the race, or the slot failed
// and task recovery (which discards speculation wholesale) takes over.
func (s *speculator) slotDone(slot int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[slot] = true
	s.errs[slot] = err
	if sp := s.specs[slot]; sp != nil {
		sp.cancel.Store(true)
	}
}

// run is the monitor loop: sample progress each tick, speculate when idle
// survivors and a straggler coexist.
//
//khuzdulvet:longrun monitor loop; must exit promptly on stopCh
func (s *speculator) run() {
	defer s.wg.Done()
	t := time.NewTicker(specTick)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		s.maybeSpeculate()
	}
}

// maybeSpeculate launches at most one speculative copy per tick: the
// running slot with the largest estimated remaining time, on the
// lowest-numbered idle survivor.
func (s *speculator) maybeSpeculate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	idle := s.idleNodeLocked()
	if idle < 0 {
		return
	}
	elapsed := time.Since(s.began).Seconds()
	best, bestEst := -1, -1.0
	for slot := 0; slot < s.slots; slot++ {
		if s.done[slot] || s.tried[slot] {
			continue
		}
		prefix, _ := s.trackers[slot].snapshot()
		remaining := len(s.roots[slot]) - prefix
		if remaining <= 0 {
			continue
		}
		// Estimated seconds to finish at the observed rate; a slot with no
		// completed range yet is maximally suspect.
		est := math.MaxFloat64
		if prefix > 0 && elapsed > 0 {
			est = float64(remaining) * elapsed / float64(prefix)
		}
		if est > bestEst {
			best, bestEst = slot, est
		}
	}
	if best < 0 {
		return
	}
	s.launchLocked(best, idle)
}

// idleNodeLocked returns the lowest-numbered machine whose every slot has
// finished cleanly and that is alive and not already hosting a copy, or -1.
func (s *speculator) idleNodeLocked() int {
	for node := 0; node < s.c.cfg.NumNodes; node++ {
		if s.busy[node] || s.nodeDead(node) {
			continue
		}
		idle := true
		for sock := 0; sock < s.c.cfg.Sockets; sock++ {
			slot := node*s.c.cfg.Sockets + sock
			if !s.done[slot] || s.errs[slot] != nil {
				idle = false
				break
			}
		}
		if idle {
			return node
		}
	}
	return -1
}

func (s *speculator) nodeDead(node int) bool {
	if s.c.resilient != nil && s.c.resilient.Dead(node) {
		return true
	}
	return s.c.injector != nil && s.c.injector.Crashed(node)
}

// launchLocked starts one speculative copy of slot's unfinished roots on
// node. Called with s.mu held.
func (s *speculator) launchLocked(slot, node int) {
	prefix, _ := s.trackers[slot].snapshot()
	suffix := s.roots[slot][prefix:]
	if len(suffix) == 0 {
		return
	}
	sp := &specRun{
		slot:    slot,
		node:    node,
		base:    prefix,
		total:   len(s.roots[slot]),
		tracker: newSpecTracker(prefix, s.c.met.Nodes[node]),
		done:    make(chan struct{}),
	}
	s.specs[slot] = sp
	s.tried[slot] = true
	s.busy[node] = true
	s.wg.Add(1)
	go s.runSpec(sp, suffix)
}

// runSpec executes one speculative copy. The copy routes fetches by the
// run's failover view (the base assignment when nobody has ever died — a
// straggler is just slow, not dead) and serves its inherited roots from
// the full graph, exactly like a recovery engine. On clean
// completion it cancels the straggler; the straggler then stops at its
// next range boundary and overrides reconciles the two halves.
func (s *speculator) runSpec(sp *specRun, suffix []graph.VertexID) {
	defer s.wg.Done()
	ext := core.NewPlanExtender(s.pl, s.labelOf)
	ext.EdgeLabelOf = s.edgeLabelOf
	fo := s.fo
	if fo == nil {
		fo = newFailover(s.c.asg, nil)
	}
	ecfg := s.c.engineConfig(s.opts, sp.node)
	ecfg.Threads *= s.c.cfg.Sockets // one copy spans the whole machine
	ecfg.OnRangeDone = sp.tracker.onRangeDone
	ecfg.Canceled = sp.cancel.Load
	eng := newEngine(ext, &recoverySource{
		g:      s.c.g,
		fo:     fo,
		node:   sp.node,
		roots:  suffix,
		fabric: s.c.fabric,
	}, sp.tracker.sink, ecfg)
	sp.err = eng.Run()
	close(sp.done)
	s.mu.Lock()
	s.busy[sp.node] = false
	win := sp.err == nil && !s.done[sp.slot]
	s.mu.Unlock()
	if win {
		s.cancelSlot(sp.slot)
	}
}

// finish stops the monitor, cancels and drains every outstanding copy, and
// returns the per-slot count overrides for speculation wins: slots whose
// main engine was cancelled by a clean speculative copy. errs is the main
// engines' outcome slice. When the run goes on to task recovery the caller
// ignores the overrides — recovery re-executes everything past each slot's
// checkpoint, which subsumes the speculative work.
func (s *speculator) finish(errs []error) map[int]uint64 {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.mu.Lock()
	for _, sp := range s.specs {
		sp.cancel.Store(true)
	}
	s.mu.Unlock()
	s.wg.Wait()
	overrides := make(map[int]uint64)
	for slot, sp := range s.specs {
		if sp.err != nil || !errors.Is(errs[slot], core.ErrCanceled) {
			continue
		}
		q, committed := s.trackers[slot].snapshot()
		end, okEnd := sp.tracker.at(sp.total)
		mid, okMid := sp.tracker.at(q)
		if !okEnd || !okMid || q < sp.base {
			// Unreachable by construction (the straggler is only cancelled
			// after the copy completed every boundary from base to total,
			// and q only grows); refuse the override rather than guess.
			continue
		}
		overrides[slot] = committed + end - mid
		if s.c.met != nil {
			s.c.met.Nodes[sp.node].SpeculationWins.Add(1)
		}
	}
	return overrides
}
