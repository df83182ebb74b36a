package plan

import (
	"khuzdul/internal/graph"
	"khuzdul/internal/setops"
)

// NeighborFunc resolves the sorted adjacency list of a vertex. Engines plug
// in the local partition, a fetched remote list, or the whole graph.
type NeighborFunc func(v graph.VertexID) []graph.VertexID

// LabelFunc resolves a vertex label; nil means the graph is unlabeled.
type LabelFunc func(v graph.VertexID) graph.Label

// EdgeLabelFunc resolves the label of an existing edge; nil means edges are
// unlabeled.
type EdgeLabelFunc func(u, v graph.VertexID) graph.Label

// noUpper is the exclusive upper bound meaning "unbounded".
const noUpper = ^graph.VertexID(0)

// Scratch holds reusable per-level buffers and kernel dispatchers for plan
// execution. It is not safe for concurrent use; create one per worker.
type Scratch struct {
	interA [][]graph.VertexID
	interB [][]graph.VertexID
	subA   [][]graph.VertexID
	subB   [][]graph.VertexID
	cand   [][]graph.VertexID
	// disp holds one skew-adaptive dispatcher per level: the per-level hub
	// bitmap lives inside it, rebuilt only when the level moves to a new hub
	// vertex and reused across every embedding that touches the same hub.
	disp []setops.Dispatcher
	// pivot gathers the input lists of a k-way pivot step.
	pivot [][]graph.VertexID
	// kernels counts kernel invocations across all levels; engines drain it
	// into their metrics node between rounds.
	kernels [setops.NumKernels]uint64
}

// NewScratch allocates buffers sized for plan p.
func NewScratch(p *Plan) *Scratch {
	s := &Scratch{
		interA: make([][]graph.VertexID, p.K),
		interB: make([][]graph.VertexID, p.K),
		subA:   make([][]graph.VertexID, p.K),
		subB:   make([][]graph.VertexID, p.K),
		cand:   make([][]graph.VertexID, p.K),
		disp:   make([]setops.Dispatcher, p.K),
		pivot:  make([][]graph.VertexID, 0, p.K),
	}
	for i := range s.disp {
		s.disp[i].HubThreshold = int(p.HubThreshold)
		s.disp[i].Counts = &s.kernels
	}
	return s
}

// SetHubThreshold overrides the compiled hub-promotion threshold for this
// scratch's dispatchers (0 disables the bitmap kernel). Plans are shared and
// possibly cached across concurrent runs, so per-run overrides land here, on
// the per-worker state, never on the plan.
func (s *Scratch) SetHubThreshold(t uint32) {
	for i := range s.disp {
		s.disp[i].HubThreshold = int(t)
	}
}

// KernelCounts exposes the per-kernel invocation counters. The engine reads
// and zeroes them at drain points; the scratch must be quiescent.
func (s *Scratch) KernelCounts() *[setops.NumKernels]uint64 { return &s.kernels }

// RawIntersect computes the raw candidate intersection for the given level:
// ∩ N(emb[j]) over j in Levels[level].Intersect, clipped to the level's
// symmetry-breaking bound (Level.Clip) before any kernel runs, honoring the
// plan's vertical-computation-sharing annotations and the compiled kernel
// hints. emb must hold the vertices matched at positions before level — the
// dispatcher keys its hub-bitmap cache by vertex ID, which stays valid
// however fetch buffers are recycled. getList(pos) must return the sorted
// edge list of the vertex matched at position pos. parentRaw is the
// intersection stored by the parent level (nil if none). The result may
// alias getList output, parentRaw, or scratch storage; callers that retain
// it across further calls must copy.
func (p *Plan) RawIntersect(s *Scratch, level int, emb []graph.VertexID, getList func(int) []graph.VertexID, parentRaw []graph.VertexID) []graph.VertexID {
	lv := &p.Levels[level]
	d := &s.disp[level]
	lo := boundAbove(lv.Clip, emb)
	if p.VCS && parentRaw != nil {
		if lv.ReuseSame {
			return setops.Clip(parentRaw, lo)
		}
		if lv.ReuseExtend {
			s.interA[level] = d.Intersect(s.interA[level][:0], parentRaw, getList(level-1), setops.NoVertex, emb[level-1], lo)
			return s.interA[level]
		}
	}
	if len(lv.Intersect) == 1 {
		return setops.Clip(getList(lv.Intersect[0]), lo)
	}
	if lv.KernelHint == HintPivot {
		s.pivot = s.pivot[:0]
		for _, j := range lv.Intersect {
			l := setops.Clip(getList(j), lo)
			if len(l) == 0 {
				return s.interA[level][:0]
			}
			s.pivot = append(s.pivot, l)
		}
		s.interA[level] = setops.IntersectPivot(s.interA[level][:0], s.pivot)
		s.kernels[setops.KernelPivot]++
		return s.interA[level]
	}
	j0, j1 := lv.Intersect[0], lv.Intersect[1]
	a := d.Intersect(s.interA[level][:0], getList(j0), getList(j1), emb[j0], emb[j1], lo)
	s.interA[level] = a
	for _, j := range lv.Intersect[2:] {
		b := d.Intersect(s.interB[level][:0], a, getList(j), setops.NoVertex, emb[j], lo)
		s.interB[level] = b
		// Keep the freshest result in interA so the next round's [:0] reuse
		// does not clobber it.
		s.interA[level], s.interB[level] = s.interB[level], s.interA[level]
		a = b
	}
	return a
}

// boundAbove returns the inclusive lower bound max(emb[a]) + 1 over the
// positions a, or 0 (unbounded) when there are none: v > emb[a] for every a
// ⇔ v ≥ boundAbove.
func boundAbove(positions []int, emb []graph.VertexID) graph.VertexID {
	lo := graph.VertexID(0)
	for _, a := range positions {
		if emb[a]+1 > lo {
			lo = emb[a] + 1
		}
	}
	return lo
}

// Candidates filters the raw intersection into the final candidate set for
// the level: symmetry-breaking lower bounds, distinctness from all earlier
// vertices, induced-mode subtraction of non-neighbor lists, and the position
// label. The result aliases the scratch candidate buffer for this level,
// which deeper levels do not touch, so it remains valid while the caller
// recurses.
func (p *Plan) Candidates(s *Scratch, level int, emb []graph.VertexID, raw []graph.VertexID, getList func(int) []graph.VertexID, labelOf LabelFunc) []graph.VertexID {
	lv := &p.Levels[level]
	// The full symmetry-breaking bound: RawIntersect clipped only on Clip,
	// which may be narrower, so this filter is the final guard.
	lo := boundAbove(lv.LowerBounds, emb)

	src := raw
	if p.Induced && len(lv.Subtract) > 0 {
		a, b := s.subA[level], s.subB[level]
		for _, j := range lv.Subtract {
			a = setops.Subtract(a[:0], src, getList(j))
			src = a
			if len(a) == 0 {
				break
			}
			a, b = b, a
		}
		s.subA[level], s.subB[level] = a[:0], b[:0] // retain grown capacity
	}

	out := setops.Filter(s.cand[level][:0], src, lo, noUpper, emb[:level])
	if labelOf != nil && p.Labeled() {
		want := p.PosLabel(level)
		w := out[:0]
		for _, v := range out {
			if labelOf(v) == want {
				w = append(w, v)
			}
		}
		out = w
	}
	s.cand[level] = out
	return out
}

// FilterEdgeLabels drops candidates whose edges back to the matched
// positions carry the wrong labels, filtering cands in place. It is a
// separate pass so that engines over unlabeled-edge graphs pay nothing.
func (p *Plan) FilterEdgeLabels(level int, emb []graph.VertexID, cands []graph.VertexID, edgeLabelOf EdgeLabelFunc) []graph.VertexID {
	if edgeLabelOf == nil || !p.EdgeLabeled {
		return cands
	}
	lv := &p.Levels[level]
	w := cands[:0]
next:
	for _, v := range cands {
		for idx, j := range lv.Intersect {
			if edgeLabelOf(emb[j], v) != lv.EdgeLabels[idx] {
				continue next
			}
		}
		w = append(w, v)
	}
	return w
}

// Executor runs a compiled plan depth-first over a neighbor oracle. It is
// the reference single-machine execution path used by the AutomineIH-style
// engines and the baselines; the distributed Khuzdul engine uses the same
// RawIntersect/Candidates kernels but schedules levels with chunks.
type Executor struct {
	plan     *Plan
	nbr      NeighborFunc
	labelOf  LabelFunc
	elabelOf EdgeLabelFunc
	scratch  *Scratch
	emb      []graph.VertexID
	lists    [][]graph.VertexID // edge list per matched position
	raws     [][]graph.VertexID // stored intersections per level
}

// NewExecutor returns an executor for plan p over the given oracles.
// labelOf may be nil for unlabeled graphs.
func NewExecutor(p *Plan, nbr NeighborFunc, labelOf LabelFunc) *Executor {
	return &Executor{
		plan:    p,
		nbr:     nbr,
		labelOf: labelOf,
		scratch: NewScratch(p),
		emb:     make([]graph.VertexID, p.K),
		lists:   make([][]graph.VertexID, p.K),
		raws:    make([][]graph.VertexID, p.K),
	}
}

// Plan returns the executor's plan.
func (e *Executor) Plan() *Plan { return e.plan }

// Scratch exposes the executor's per-worker scratch; hub-threshold overrides
// and the per-kernel invocation counters live there.
func (e *Executor) Scratch() *Scratch { return e.scratch }

// SetEdgeLabelOf installs an edge-label oracle for edge-labeled patterns.
func (e *Executor) SetEdgeLabelOf(f EdgeLabelFunc) { e.elabelOf = f }

// CountRoot counts all pattern embeddings whose position-0 vertex is root.
func (e *Executor) CountRoot(root graph.VertexID) uint64 {
	if !e.admitRoot(root) {
		return 0
	}
	return e.count(1)
}

// VisitRoot invokes onMatch with every embedding rooted at root. The slice
// passed to onMatch is reused; callers must copy to retain it.
func (e *Executor) VisitRoot(root graph.VertexID, onMatch func(emb []graph.VertexID)) {
	if !e.admitRoot(root) {
		return
	}
	e.visit(1, onMatch)
}

func (e *Executor) admitRoot(root graph.VertexID) bool {
	if e.labelOf != nil && e.plan.Labeled() && e.labelOf(root) != e.plan.PosLabel(0) {
		return false
	}
	e.emb[0] = root
	e.lists[0] = e.nbr(root)
	return true
}

func (e *Executor) getList(pos int) []graph.VertexID { return e.lists[pos] }

func (e *Executor) levelCandidates(level int) []graph.VertexID {
	p := e.plan
	var parentRaw []graph.VertexID
	if level > 1 {
		parentRaw = e.raws[level-1]
	}
	raw := p.RawIntersect(e.scratch, level, e.emb, e.getList, parentRaw)
	cands := p.Candidates(e.scratch, level, e.emb, raw, e.getList, e.labelOf)
	cands = p.FilterEdgeLabels(level, e.emb, cands, e.elabelOf)
	if level < p.K-1 {
		if p.Levels[level].StoreInter {
			e.raws[level] = append(e.raws[level][:0], raw...)
		} else {
			e.raws[level] = e.raws[level][:0]
		}
	}
	return cands
}

func (e *Executor) count(level int) uint64 {
	p := e.plan
	cands := e.levelCandidates(level)
	if level == p.K-1 {
		return uint64(len(cands))
	}
	var total uint64
	for _, v := range cands {
		e.emb[level] = v
		if p.Levels[level].NeedsList {
			e.lists[level] = e.nbr(v)
		}
		total += e.count(level + 1)
	}
	return total
}

func (e *Executor) visit(level int, onMatch func([]graph.VertexID)) {
	p := e.plan
	cands := e.levelCandidates(level)
	if level == p.K-1 {
		for _, v := range cands {
			e.emb[level] = v
			onMatch(e.emb)
		}
		return
	}
	for _, v := range cands {
		e.emb[level] = v
		if p.Levels[level].NeedsList {
			e.lists[level] = e.nbr(v)
		}
		e.visit(level+1, onMatch)
	}
}

// Count counts all embeddings of the plan's pattern over the given roots.
func Count(p *Plan, nbr NeighborFunc, labelOf LabelFunc, roots []graph.VertexID) uint64 {
	e := NewExecutor(p, nbr, labelOf)
	var total uint64
	for _, r := range roots {
		total += e.CountRoot(r)
	}
	return total
}

// CountGraph counts all embeddings over every vertex of g as root.
func CountGraph(p *Plan, g *graph.Graph) uint64 {
	var labelOf LabelFunc
	if g.Labeled() {
		labelOf = g.Label
	}
	e := NewExecutor(p, g.Neighbors, labelOf)
	if g.EdgeLabeled() {
		e.SetEdgeLabelOf(EdgeLabelOracle(g))
	}
	var total uint64
	for v := 0; v < g.NumVertices(); v++ {
		total += e.CountRoot(graph.VertexID(v))
	}
	return total
}

// EdgeLabelOracle adapts a graph's EdgeLabel lookup to an EdgeLabelFunc
// (only called on existing edges).
func EdgeLabelOracle(g *graph.Graph) EdgeLabelFunc {
	return func(u, v graph.VertexID) graph.Label {
		l, _ := g.EdgeLabel(u, v)
		return l
	}
}
