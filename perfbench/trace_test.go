package main

import (
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	// bench.run [0,100] holds cluster.Count [10,50] and two overlapping
	// service queries [40,70] and [60,80]; cluster.Count holds a span
	// [20,30] and one [45,60] that overruns its parent by 10.
	spans := []span{
		{ID: 1, Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cluster.Count", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "service.Client.Run", Start: 40, End: 70},
		{ID: 4, Parent: 1, Name: "service.Client.Run", Start: 60, End: 80},
		{ID: 5, Parent: 2, Name: "comm.TCP.Fetch", Start: 20, End: 30},
		{ID: 6, Parent: 2, Name: "setops.Dispatcher.Intersect", Start: 45, End: 60},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":   30, // 100 minus the union [10,80]
		"cluster": 25, // 40 minus [20,30] and the clipped [45,50]
		"service": 50, // leaves: 30 + 20
		"comm":    10,
		"setops":  15,
	}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("cluster.Count", 0, 1)
	tr.finish(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span ID %d", id)
	}
	on := newTracer()
	root := on.start("bench.run", 0, -1)
	child := on.start("graph.RMAT", root, -1)
	on.finish(child)
	on.finish(root)
	s := on.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].End < s[1].Start || s[0].End < s[1].End {
		t.Fatalf("spans %+v do not nest", s)
	}
}
