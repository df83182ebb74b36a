package plan

import (
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

// fuzzPattern decodes a connected pattern of 2–5 vertices: data[0] picks
// the size, the next two bytes are the edge bitmap over vertex pairs, and a
// vertex left without an edge to a lower-numbered one is joined to its
// predecessor, so every decoded pattern is connected.
func fuzzPattern(data []byte) *pattern.Pattern {
	var b [3]byte
	copy(b[:], data)
	n := 2 + int(b[0]%4)
	mask := uint16(b[1]) | uint16(b[2])<<8
	pat := pattern.New(n)
	bit := 0
	for v := 1; v < n; v++ {
		linked := false
		for u := 0; u < v; u++ {
			if mask&(1<<uint(bit)) != 0 {
				pat.AddEdge(u, v)
				linked = true
			}
			bit++
		}
		if !linked {
			pat.AddEdge(v-1, v)
		}
	}
	return pat
}

// FuzzCompile compiles random connected patterns under both client
// compilers, with vertical computation sharing and induced matching on and
// off, and checks each plan against Validate and the brute-force oracle.
// Every restriction, Clip bound and reuse annotation the compilers emit is
// exercised by the count.
func FuzzCompile(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 0xff, 0xff}, // triangle
		{2, 0xff, 0xff}, // K4
		{3, 0xff, 0xff}, // K5
		{2, 0x1f, 0},    // diamond
		{2, 0x2d, 0},    // C4
		{2, 0x0b, 0},    // 3-star
		{3, 0xed, 0},    // house
		{3, 0, 0},       // 5-path
	} {
		for flags := byte(0); flags < 8; flags++ {
			f.Add(append(append([]byte(nil), seed...), flags))
		}
	}
	g := graph.RMATDefault(24, 80, 3)
	f.Fuzz(func(t *testing.T, data []byte) {
		pat := fuzzPattern(data)
		var flags byte
		if len(data) > 3 {
			flags = data[3]
		}
		opts := Options{
			Style:      StyleAutomine,
			DisableVCS: flags&2 != 0,
			Induced:    flags&4 != 0,
			Stats:      StatsOf(g),
		}
		if flags&1 != 0 {
			opts.Style = StyleGraphPi
		}
		pl, err := Compile(pat, opts)
		if err != nil {
			t.Fatalf("Compile(%v, %+v): %v", pat, opts, err)
		}
		if err := pl.Validate(); err != nil {
			t.Fatalf("Compile(%v, %+v) produced an invalid plan: %v\n%s", pat, opts, err, pl.Explain())
		}
		want := BruteForceCount(g, pat, opts.Induced)
		if got := CountGraph(pl, g); got != want {
			t.Fatalf("%v %+v: CountGraph = %d, brute force = %d\n%s", pat, opts, got, want, pl.Explain())
		}
	})
}
