package main

import (
	"testing"
	"time"
)

func TestWindowStealShares(t *testing.T) {
	s := []cpuSample{
		{at: 0, steal: 0, total: 0},
		{at: 500 * time.Millisecond, steal: 0, total: 100},
		{at: time.Second, steal: 0, total: 200},
		{at: 2 * time.Second, steal: 20, total: 400},
		{at: 2500 * time.Millisecond, steal: 20, total: 500},
	}
	got := windowSteal(s, 2500*time.Millisecond)
	want := []float64{0, 0.1, 0}
	if len(got) != len(want) {
		t.Fatalf("windowSteal = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowSteal = %v, want %v", got, want)
		}
	}
	if got := windowSteal(nil, 1500*time.Millisecond); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("windowSteal without samples = %v, want two quiet windows", got)
	}
}

// tenPerSecond is one 100 ms op after another for n seconds.
func tenPerSecond(n int) []opSpan {
	var ops []opSpan
	for i := 0; i < 10*n; i++ {
		start := time.Duration(i) * 100 * time.Millisecond
		ms := 100.0
		if i/10 == 2 {
			ms = 90 // second 2 is stolen: its ops are shorter only to tell them apart
		}
		ops = append(ops, opSpan{start: start, end: start + time.Duration(ms*float64(time.Millisecond)), ms: ms})
	}
	return ops
}

func TestQuietOpsDropsStolenWindows(t *testing.T) {
	ops := tenPerSecond(4)
	steal := []float64{0, 0.005, 0.2, 0.01}
	lat, rate := quietOps(ops, steal, 4*time.Second, 20)
	if len(lat) != 30 {
		t.Fatalf("kept %d ops, want the 30 outside the stolen second", len(lat))
	}
	for _, l := range lat {
		if l != 100 {
			t.Fatalf("kept an op of the stolen second (%v ms)", l)
		}
	}
	if rate != 10 {
		t.Fatalf("rate = %v, want 10/s over the three kept seconds", rate)
	}
}

func TestQuietOpsAddsLeastStolenWindows(t *testing.T) {
	ops := tenPerSecond(4)
	steal := []float64{0.3, 0.05, 0.2, 0.1}
	// No window is quiet; 20 ops need the two least stolen windows, 1 and 3.
	lat, rate := quietOps(ops, steal, 4*time.Second, 20)
	if len(lat) != 20 || rate != 10 {
		t.Fatalf("kept %d ops at %v/s, want 20 at 10/s", len(lat), rate)
	}
	// Every op kept when every window is quiet; a window shorter than a
	// second counts for its own length.
	lat, rate = quietOps(ops[:35], make([]float64, 4), 3500*time.Millisecond, 100)
	if len(lat) != 35 || rate != 10 {
		t.Fatalf("kept %d ops at %v/s, want 35 at 10/s", len(lat), rate)
	}
}

func TestReadCPUStat(t *testing.T) {
	steal, total, ok := readCPUStat()
	if !ok {
		t.Skip("no /proc/stat here")
	}
	if total == 0 || steal > total {
		t.Fatalf("steal %d of total %d", steal, total)
	}
}

func TestStealMonitorStops(t *testing.T) {
	if _, _, ok := readCPUStat(); !ok {
		t.Skip("no /proc/stat here")
	}
	m := startStealMonitor(time.Now())
	time.Sleep(3 * stealTick)
	s := m.stop()
	if len(s) < 3 {
		t.Fatalf("%d samples over %v, want the first, the ticks and the last", len(s), 3*stealTick)
	}
	for i := 1; i < len(s); i++ {
		if s[i].at < s[i-1].at || s[i].total < s[i-1].total {
			t.Fatalf("samples out of order: %+v then %+v", s[i-1], s[i])
		}
	}
}
