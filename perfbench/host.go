package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor now and then runs other guests
// on this one's CPUs; the guest kernel counts that time as steal in
// /proc/stat. Ops that overlap it time the host, not the engine, and such
// episodes last from a second to minutes, so they move a whole run's
// quantiles. The timed phase therefore samples steal, cuts the phase into
// quietWindow-long windows, and computes the timing metrics from the ops
// that lie wholly in quiet windows (steal at most maxSteal of the CPU time).
// When those hold too few ops, the least stolen of the other windows are
// added until they do. Every op is still run, counted and checked.
const (
	quietWindow = time.Second
	maxSteal    = 0.01
	stealTick   = 100 * time.Millisecond
)

// cpuSample is the machine-wide cumulative steal and total CPU time, in
// clock ticks, at an offset from the start of the timed phase.
type cpuSample struct {
	at           time.Duration
	steal, total uint64
}

// readCPUStat parses the aggregate "cpu" line of /proc/stat; ok is false
// where there is none.
func readCPUStat() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// stealMonitor samples /proc/stat every stealTick from the start of a timed
// phase until stop.
type stealMonitor struct {
	t0      time.Time
	quit    chan struct{}
	wg      sync.WaitGroup
	samples []cpuSample
}

func startStealMonitor(t0 time.Time) *stealMonitor {
	m := &stealMonitor{t0: t0, quit: make(chan struct{})}
	m.sample()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(stealTick)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMonitor) sample() {
	if s, t, ok := readCPUStat(); ok {
		m.samples = append(m.samples, cpuSample{at: time.Since(m.t0), steal: s, total: t})
	}
}

// stop ends the sampling, takes a last sample, and returns them all.
func (m *stealMonitor) stop() []cpuSample {
	close(m.quit)
	m.wg.Wait()
	m.sample()
	return m.samples
}

// windowSteal returns, for each quietWindow of [0, end), the share of the
// machine's CPU time stolen in it, from the samples taken nearest its
// edges. Without samples every window reads 0.
func windowSteal(samples []cpuSample, end time.Duration) []float64 {
	n := max(int((end+quietWindow-1)/quietWindow), 1)
	share := make([]float64, n)
	if len(samples) < 2 {
		return share
	}
	// at returns the last sample taken at or before t (the first if none).
	at := func(t time.Duration) cpuSample {
		i := sort.Search(len(samples), func(i int) bool { return samples[i].at > t })
		return samples[max(i-1, 0)]
	}
	for k := range share {
		a, b := at(time.Duration(k)*quietWindow), at(time.Duration(k+1)*quietWindow)
		if b.total > a.total {
			share[k] = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
	}
	return share
}

// opSpan is one op that returned the right count: its start and end as
// offsets from the start of the timed phase, and its latency in ms.
type opSpan struct {
	start, end time.Duration
	ms         float64
}

// quietOps keeps the ops that lie wholly in quiet windows (steal share at
// most maxSteal); while those are fewer than minKeep, it adds the least
// stolen remaining window. It returns the kept ops' latencies and the
// completion rate over the kept windows: the ops that ended in one, per
// second of kept windows (the last window ends at end).
func quietOps(ops []opSpan, steal []float64, end time.Duration, minKeep int) (lat []float64, rate float64) {
	kept := make([]bool, len(steal))
	order := make([]int, len(steal))
	for k := range order {
		order[k] = k
		kept[k] = steal[k] <= maxSteal
	}
	sort.SliceStable(order, func(i, j int) bool { return steal[order[i]] < steal[order[j]] })
	// An op covers [start, end): one ending on a window edge lies before it.
	win := func(t time.Duration) int { return min(int(t/quietWindow), len(steal)-1) }
	last := func(o opSpan) int { return max(win(o.end-1), win(o.start)) }
	inKept := func(o opSpan) bool {
		for k := win(o.start); k <= last(o); k++ {
			if !kept[k] {
				return false
			}
		}
		return true
	}
	count := func() int {
		n := 0
		for _, o := range ops {
			if inKept(o) {
				n++
			}
		}
		return n
	}
	for _, k := range order {
		if count() >= minKeep {
			break
		}
		kept[k] = true
	}
	var keptTime time.Duration
	for k, ok := range kept {
		if ok {
			keptTime += min(quietWindow, end-time.Duration(k)*quietWindow)
		}
	}
	completed := 0
	for _, o := range ops {
		if inKept(o) {
			lat = append(lat, o.ms)
		}
		if kept[last(o)] {
			completed++
		}
	}
	if keptTime > 0 {
		rate = float64(completed) / keptTime.Seconds()
	}
	return lat, rate
}
