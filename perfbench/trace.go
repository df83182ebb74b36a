package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of the
// call. Names are "<layer>.<function>"; the layer is the package called.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Op     int           `json:"op"`     // timed op index the span serves, -1 outside the timed phase
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run and the untraced half of the traced
// run's ops call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 when t is nil).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// finish closes the span start returned.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf returns the layer prefix of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus, per span, the part of its interval covered by the union of
// its children (children may overlap, as concurrent queries do).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p's.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans saves the spans and the per-layer self times as JSON.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	selfMS := make(map[string]float64, len(self))
	for layer, d := range self {
		selfMS[layer] = ms(d)
	}
	data, err := json.Marshal(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{selfMS, spans})
	if err != nil {
		return fmt.Errorf("perfbench: encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("perfbench: write spans: %w", err)
	}
	return nil
}
