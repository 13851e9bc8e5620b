package rmat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"chaos/internal/graph"
	"chaos/internal/raceflag"
)

func TestScaleCounts(t *testing.T) {
	g := New(10, 1)
	if g.NumVertices() != 1024 {
		t.Errorf("vertices = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() != 16384 {
		t.Errorf("edges = %d, want 16384 (2^(n+4))", g.NumEdges())
	}
	edges := g.Generate()
	if uint64(len(edges)) != g.NumEdges() {
		t.Errorf("generated %d edges, want %d", len(edges), g.NumEdges())
	}
}

func TestAllIDsInRange(t *testing.T) {
	g := New(8, 3)
	n := graph.VertexID(g.NumVertices())
	for _, e := range g.Generate() {
		if e.Src >= n || e.Dst >= n {
			t.Fatalf("edge %+v out of range [0,%d)", e, n)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(8, 42).Generate()
	b := New(8, 42).Generate()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs across runs with equal seed", i)
		}
	}
	c := New(8, 43).Generate()
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical graphs")
	}
	for _, weighted := range []bool{false, true} {
		g := New(8, 42)
		g.Weighted = weighted
		want := g.Generate()
		var each []graph.Edge
		g.Each(make([]graph.Edge, 1000), func(b []graph.Edge) { each = append(each, b...) }) // a short last batch
		if len(each) != len(want) {
			t.Fatalf("weighted %v: Each yielded %d edges, Generate %d", weighted, len(each), len(want))
		}
		for i := range want {
			if each[i] != want[i] {
				t.Fatalf("weighted %v: edge %d: Each yielded %+v, Generate %+v", weighted, i, each[i], want[i])
			}
		}
	}
}

// digest hashes the edges' Src, Dst and weight bits, little-endian.
func digest(edges []graph.Edge) string {
	h := sha256.New()
	var rec [20]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.Src))
		binary.LittleEndian.PutUint64(rec[8:], uint64(e.Dst))
		binary.LittleEndian.PutUint32(rec[16:], math.Float32bits(e.Weight))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigests pins the generator's output bit for bit. Goldens,
// figure records and every graph a data dir restores from its spec
// depend on these edges and on how much of the random stream each one
// consumes, so a change here is never a refactoring.
func TestGenerateDigests(t *testing.T) {
	for _, tc := range []struct {
		scale    int
		seed     int64
		weighted bool
		want     string
	}{
		{1, 0, false, "9923391c91034cca0dcd2f01589fa6fff4b3d9f2bb38a277da2f9cd0616201b1"},
		{1, 0, true, "321c51faaa374614d75f635bea7685b866cca5348f5e4eb6dabe3be446c9867f"},
		{1, 1, false, "4d2b6b756de2ecfca4075e52ced377fb516a7290d2c12184a882169683657c46"},
		{1, 1, true, "7b1431a2f93b0b1415ee000a964d760f739858600e4cb0296336f9a9d155ddab"},
		{1, 42, false, "8750ff3c839e5c9c5a06ca11fef47988061c3d89802acf5fc724820b74325af4"},
		{1, 42, true, "3b90e3e63b75ca6d0bb9cf8ee306f6088a0550f12cfc61a58460d922d6601510"},
		{1, -7, false, "284063ce2f271f7372dbc91a58c2a89aafee29706efd5ea5e2b3aa96c515c90c"},
		{1, -7, true, "b59578b708b47f7f168a1ed532c3b863066598b8c2238038a121de60c185cf32"},
		{10, 0, false, "8e479d30c7e9cc1cc06b76f6b2940266fc404a9589efea0f0f36579046440c27"},
		{10, 0, true, "6bfcbbdb94aa4b0a63fd186ba0a24e9fff4c7afaf874d44bed3bc17654bbaf4e"},
		{10, 1, false, "39efdd9d914335a43ca3dc3241df4f278359aa623b3f10b18671393a4df13606"},
		{10, 1, true, "fda0231877d053bcc4be5943f37f3861c7657c3c8286b65967b67440e6b381d4"},
		{10, 42, false, "ac82e24621925b7f4a2a25abf55ee1da70b29caaf45b2778141cc74c15f1e98b"},
		{10, 42, true, "fcf3a8e91e117474e1caf14272f570c48dadd8609cfa1315e58fd7b115668c2a"},
		{10, -7, false, "0235d0a72ef7f0e4e3edbc7bbe28f4f95585354e63d59d50581dd6415913c5a9"},
		{10, -7, true, "3351ec6d2e790efa86368d2437728fbfa333785addf946520e92f3ba50c9e15d"},
		{16, 0, false, "572ac41b489c7f78de22c60cc08b1ceec37bbf263babb9e6ed3ec64a1053d757"},
		{16, 0, true, "7e3e5e3f038433249003ccd88d572e3685fc8a95a0d86fc5256f6b4b0a5e521c"},
		{16, 1, false, "fc58adbd054cac00df5cdccf8db928718da27db8920f7381da98395763a3754f"},
		{16, 1, true, "65896e18d9ff0420d7ce6ab18d55446529c53951f0c25c3a4d1fce5135b3dece"},
		{16, 42, false, "0924720b6d8413aa74c41b34081619a4e89a9320180bcc1ca668a66f641dc18c"},
		{16, 42, true, "6b39e1103c1d847a9443af5c693bc728c8f5e5cd6b5c200ace648a1f6741399f"},
		{16, -7, false, "bb41b0459209154c03d7623f7113cd82581e7a38ff67f9eaa98bf4e15971128e"},
		{16, -7, true, "3d150930275c5ac80ce6ae4b99981563234035a2896eea2dcae30f60d8a57fc0"},
	} {
		g := New(tc.scale, tc.seed)
		g.Weighted = tc.weighted
		if got := digest(g.Generate()); got != tc.want {
			t.Errorf("scale %d seed %d weighted %v: digest %s, want %s", tc.scale, tc.seed, tc.weighted, got, tc.want)
		}
	}
}

// TestGenerateAllocs: Generate fills one presized slice. The only other
// allocation is math/rand's source, which escapes through the Source
// interface whatever the caller does.
func TestGenerateAllocs(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := New(6, 1)
	if got := testing.AllocsPerRun(10, func() { g.Generate() }); got != 2 {
		t.Errorf("Generate: %v allocs, want 2 (the edge slice and the random source)", got)
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := New(16, 1)
	b.ReportAllocs()
	for b.Loop() {
		g.Generate()
	}
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func TestDegreeSkew(t *testing.T) {
	// R-MAT graphs are heavily skewed: the max out-degree should far
	// exceed the mean (16), and low-ID vertices should be the hubs.
	g := New(12, 7)
	deg := make([]int, g.NumVertices())
	g.Each(make([]graph.Edge, 1024), func(b []graph.Edge) {
		for _, e := range b {
			deg[e.Src]++
		}
	})
	sorted := append([]int(nil), deg...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	if sorted[0] < 100 {
		t.Errorf("max degree %d, want heavy skew (>=100 for scale 12)", sorted[0])
	}
	// Top 1%% of vertices should hold a disproportionate share of edges.
	top := 0
	for _, d := range sorted[:len(sorted)/100] {
		top += d
	}
	if frac := float64(top) / float64(g.NumEdges()); frac < 0.10 {
		t.Errorf("top 1%% of vertices hold %.2f of edges, want >= 0.10", frac)
	}
}

func TestQuadrantProbabilities(t *testing.T) {
	// With scale 1 the first bit split directly reflects (A,B,C,D).
	g := New(16, 9)
	var counts [4]float64
	hi := uint64(g.NumVertices() / 2)
	g.Each(make([]graph.Edge, 1024), func(b []graph.Edge) {
		for _, e := range b {
			q := 0
			if uint64(e.Src) >= hi {
				q += 2
			}
			if uint64(e.Dst) >= hi {
				q++
			}
			counts[q]++
		}
	})
	total := float64(g.NumEdges())
	want := [4]float64{g.A, g.B, g.C, g.D}
	for q := range counts {
		got := counts[q] / total
		if math.Abs(got-want[q]) > 0.02 {
			t.Errorf("quadrant %d frequency %.3f, want %.3f +- 0.02", q, got, want[q])
		}
	}
}

func TestWeightedEdges(t *testing.T) {
	g := New(8, 5)
	g.Weighted = true
	for _, e := range g.Generate() {
		if e.Weight < 0 || e.Weight >= 1 {
			t.Fatalf("weight %f out of [0,1)", e.Weight)
		}
	}
	if !g.Format().Weighted {
		t.Error("format should be weighted")
	}
}

func TestFormatSelection(t *testing.T) {
	if f := New(10, 1).Format(); !f.Compact {
		t.Error("scale-10 should use compact format")
	}
	if f := New(33, 1).Format(); f.Compact {
		t.Error("scale-33 (2^33 vertices) must use non-compact format")
	}
}

// referenceEach is the generator as math/rand defines it, the per-draw
// loop Each replaces: each level compares one rng.Float64() with the
// cumulative probabilities, then a weighted edge takes rng.Float32().
// It calls fn on the first n edges.
func referenceEach(g *Generator, rng *rand.Rand, n uint64, fn func(graph.Edge)) {
	a, ab, abc := g.A, g.A+g.B, g.A+g.B+g.C
	for ; n > 0; n-- {
		var src, dst uint64
		for range g.Scale {
			r := rng.Float64()
			src = src<<1 | bit(r >= ab)
			dst = dst<<1 | (bit(r >= a) ^ bit(r >= ab) ^ bit(r >= abc))
		}
		e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
		if g.Weighted {
			e.Weight = rng.Float32()
		}
		fn(e)
	}
}

// matchReference generates g's first n edges from src through each, in
// batches of batch, and from ref through referenceEach, and fails at the
// first edge where they differ, weight bits included.
func matchReference(t testing.TB, g *Generator, src rand.Source64, ref rand.Source, n uint64, batch int) {
	t.Helper()
	var got []graph.Edge
	g.each(src, n, make([]graph.Edge, batch), func(b []graph.Edge) {
		if len(b) == 0 || len(b) > batch {
			t.Fatalf("%+v: a batch of %d edges from a buffer of %d", g, len(b), batch)
		}
		got = append(got, b...)
	})
	if uint64(len(got)) != n {
		t.Fatalf("%+v: yielded %d edges, want %d", g, len(got), n)
	}
	i := 0
	referenceEach(g, rand.New(ref), n, func(want graph.Edge) {
		e := got[i]
		if e.Src != want.Src || e.Dst != want.Dst || math.Float32bits(e.Weight) != math.Float32bits(want.Weight) {
			t.Fatalf("%+v: edge %d is %+v, math/rand's is %+v", g, i, e, want)
		}
		i++
	})
}

// TestEachMatchesMathRand holds the block stream, the integer thresholds
// and the quadrant table to the per-draw loop over math/rand, edge for
// edge. Scales past 8 compare their first 2^12 edges, 9 to 59 blocks of
// the stream; TestGenerateDigests pins whole graphs.
func TestEachMatchesMathRand(t *testing.T) {
	probs := []struct{ a, b, c float64 }{
		{DefaultA, DefaultB, DefaultC},
		{0.5, 0.25, 0.125}, // every threshold on a bucket edge
		{1, 0, 0},
		{0, 0, 0},
	}
	batches := []int{1, 7, 1000, 4109}
	scales := []int{33, 40, 59} // past the 32 levels a word of quadrants holds
	for s := 20; s >= 1; s-- {
		scales = append(scales, s)
	}
	i := 0
	for _, seed := range []int64{0, 1, 42, -7, 1<<31 - 1, 1 << 40, math.MinInt64} {
		for _, scale := range scales {
			for _, weighted := range []bool{false, true} {
				for _, p := range probs {
					g := &Generator{Scale: scale, A: p.a, B: p.b, C: p.c, D: 1 - p.a - p.b - p.c, Weighted: weighted, Seed: seed}
					n := min(g.NumEdges(), 1<<12)
					matchReference(t, g, rand.NewSource(seed).(rand.Source64), rand.NewSource(seed), n, batches[i%len(batches)])
					i++
				}
			}
		}
	}
}

// replay is a rand.Source64 whose first outputs are given and whose
// later ones continue math/rand's recurrence from them, as a seeded
// source's do once its register is all outputs.
type replay struct {
	y []uint64
	k int
}

func (r *replay) Uint64() uint64 {
	if r.k == len(r.y) {
		r.y = append(r.y, r.y[r.k-lagLong]+r.y[r.k-lagShort])
	}
	r.k++
	return r.y[r.k-1]
}

func (r *replay) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }
func (r *replay) Seed(int64)   { panic("replay: Seed") }

// TestRejectedDrawsMatchMathRand builds the register Each starts from by
// hand, so that the draws math/rand resamples occur: Int63 draws whose
// Float64 rounds to 1, and Float64s whose Float32 does. No seed a test
// can search for yields the first; the second comes about once in 2^25
// weighted edges. The same register holds draws on each side of every
// threshold, including thresholds one draw inside a bucket's ends.
func TestRejectedDrawsMatchMathRand(t *testing.T) {
	const top, bucket = 1 << 63, 1 << bucketShift
	specials := []uint64{
		top - 512,         // least(1): Float64 rounds it to 1
		top - 1,           // the largest Int63
		^uint64(0),        // bit 63 set: Int63 masks it to top-1
		top | (top - 700), // masks to a draw that rounds to 1
		top - 1<<38,       // Float64 keeps it, Float32 rounds it to 1
		top - 513,         // the largest draw Float64 keeps
		0, bucket - 2, bucket - 1, bucket, bucket + 1, bucket + 2, 2*bucket - 1, 2 * bucket,
		least(DefaultA), least(DefaultA) - 1,
		least(DefaultA + DefaultB), least(DefaultA+DefaultB) - 1,
		least(DefaultA + DefaultB + DefaultC), least(DefaultA+DefaultB+DefaultC) - 1,
	}
	src := rand.NewSource(1).(rand.Source64)
	reg := make([]uint64, lagLong)
	for i := range reg {
		reg[i] = src.Uint64()
		if i%3 == 0 { // a special draw in every third place
			reg[i] = specials[i/3%len(specials)]
		}
	}
	// Thresholds one draw below bucket 1, one draw into it, and on
	// bucket 2's first draw: a table that marks a bucket by the wrong
	// end misplaces one of the special draws around them.
	a, b, c := float64(bucket-1)/top, 2.0/top, float64(bucket-1)/top
	if least(a) != bucket-1 || least(a+b) != bucket+1 || least(a+b+c) != 2*bucket {
		t.Fatalf("thresholds %d, %d, %d", least(a), least(a+b), least(a+b+c))
	}
	probs := []struct{ a, b, c float64 }{{DefaultA, DefaultB, DefaultC}, {a, b, c}}
	resampled := false
	for _, p := range probs {
		for scale := 1; scale <= 6; scale++ {
			for _, weighted := range []bool{false, true} {
				g := &Generator{Scale: scale, A: p.a, B: p.b, C: p.c, D: 1 - p.a - p.b - p.c, Weighted: weighted}
				ref := &replay{y: append([]uint64(nil), reg...)}
				n := uint64(2000)
				matchReference(t, g, &replay{y: append([]uint64(nil), reg...)}, ref, n, 37)
				per := uint64(scale)
				if weighted {
					per++
				}
				resampled = resampled || uint64(ref.k) > n*per
			}
		}
	}
	if !resampled {
		t.Fatal("no edge drew a value math/rand resamples")
	}
}

// TestLeastIsExact: least(p) is the boundary of the float predicate the
// reference loop evaluates, so u >= least(p) and Float64 >= p agree on
// every draw.
func TestLeastIsExact(t *testing.T) {
	ge := func(u uint64, p float64) bool { return float64(u)/(1<<63) >= p }
	for _, p := range []float64{
		DefaultA, DefaultA + DefaultB, DefaultA + DefaultB + DefaultC,
		0, 0.5, 1, math.Nextafter(1, 0), 1e-300, -1, 2, math.NaN(),
	} {
		l := least(p)
		switch {
		case l > 1<<63+1:
			t.Errorf("least(%v) = %d, past 2^63+1", p, l)
		case l == 1<<63+1:
			if !(p > 1 || math.IsNaN(p)) || ge(1<<63, p) {
				t.Errorf("least(%v) says no draw reaches it", p)
			}
		default:
			if !ge(l, p) || (l > 0 && ge(l-1, p)) {
				t.Errorf("least(%v) = %d is not the predicate's boundary", p, l)
			}
		}
	}
	if got := least(1); got != 1<<63-512 {
		t.Errorf("least(1) = %d, want 2^63-512, the first draw Float64 resamples", got)
	}
}

func TestCheckScale(t *testing.T) {
	for _, scale := range []int{1, 18, 30} {
		if err := CheckScale(scale); err != nil {
			t.Errorf("scale %d: %v", scale, err)
		}
	}
	for _, scale := range []int{0, -1, 31, 60} {
		if err := CheckScale(scale); err == nil {
			t.Errorf("scale %d accepted", scale)
		}
	}
	if err := CheckScale(45); err == nil || err.Error() != "rmat scale 45 out of range [1,30]" {
		t.Errorf("CheckScale(45) = %v", err)
	}
}

// FuzzGenerateMatchesMathRand holds Each to the per-draw loop at any
// seed, scale and probabilities, NaN and out-of-range ones included.
func FuzzGenerateMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint8(10), DefaultA, DefaultB, DefaultC, false)
	f.Add(int64(-7), uint8(17), 0.5, 0.25, 0.125, true)
	f.Add(int64(math.MinInt64), uint8(23), 1.0, 0.0, 0.0, true)
	f.Add(int64(42), uint8(3), math.NaN(), -1.0, 2.0, false)
	f.Fuzz(func(t *testing.T, seed int64, scale uint8, a, b, c float64, weighted bool) {
		g := &Generator{Scale: 1 + int(scale)%24, A: a, B: b, C: c, D: 1 - a - b - c, Weighted: weighted, Seed: seed}
		matchReference(t, g, rand.NewSource(seed).(rand.Source64), rand.NewSource(seed), min(g.NumEdges(), 2048), 1000)
	})
}
