package webgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"chaos/internal/graph"
)

func TestAllTargetsInRange(t *testing.T) {
	g := New(1000, 1)
	for _, e := range g.Generate() {
		if uint64(e.Src) >= g.Pages || uint64(e.Dst) >= g.Pages {
			t.Fatalf("edge %+v out of range [0,%d)", e, g.Pages)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(500, 42).Generate()
	b := New(500, 42).Generate()
	if len(a) != len(b) {
		t.Fatalf("edge counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs across runs with equal seed", i)
		}
	}
	var each []graph.Edge
	New(500, 42).Each(make([]graph.Edge, 1000), func(b []graph.Edge) { each = append(each, b...) }) // a short last batch
	if len(each) != len(a) {
		t.Fatalf("Each yielded %d edges, Generate %d", len(each), len(a))
	}
	for i := range a {
		if each[i] != a[i] {
			t.Fatalf("edge %d: Each yielded %+v, Generate %+v", i, each[i], a[i])
		}
	}
}

// TestWebGenerateDigests pins the generator's output bit for bit, as
// rmat's TestGenerateDigests does: every web graph a data dir restores
// from its spec is regenerated from it, so its records, and how much of
// the random stream each page consumes, must never change. The digest
// is over the §8 records the catalog and chaos-gen write.
func TestWebGenerateDigests(t *testing.T) {
	for _, tc := range []struct {
		pages uint64
		seed  int64
		want  string
	}{
		{2, 0, "b28b52f32b550b64d9af607e83939898d38e23ba0af0c2f004f32a9d095efca6"},
		{2, 1, "35690bafce9f3bcf9b912e5b0c046a8518492891f5acfe8c661199af6175011a"},
		{2, 42, "f03895c4160d228eeceff6c5f0a82e2384a63e854907b7a2ffcc04d4c3fec421"},
		{2, -7, "4e38107ef2a8cfd7d24d90b3ecda25859d64fb285901fc908fce218f0a7e5f07"},
		{1000, 0, "c1ad18bf40d35c4e29b358ef1e81b00512875e106bcf2218846d66c49613954b"},
		{1000, 1, "2ff4714c253c003dadd280af76dde35cde2e5dbf8333265a2407af9bcf93508e"},
		{1000, 42, "9dfa8c36b65a5625a11f92f8e11cba7f382ca109507d42746e26c045c8abb9e1"},
		{1000, -7, "6e676a985fd8ebc8dfef7d34901eabd6ccbd751c88547bfe034ef26458979a19"},
		{1 << 11, 0, "2b79adf3a1777cfa102a73f981912679cdd2da52186e3a8a27c881861f76fc75"},
		{1 << 11, 1, "911bf886d7a84c72d224a3e42333cc52907e68ee94fb409e19335962466976ab"},
		{1 << 11, 42, "0382eb42825271a900802b445f6b1f0e2b5cdf425d712d687c1e0c21ca373e34"},
		{1 << 11, -7, "0fbdf31f0e2e93053b8c447fd2e4c168f6d5c36fb785a489e897492e69ab48e7"},
		{1 << 14, 0, "a0665f5ff1772ffeccd0b0d95008f627520990a1faefe6e2d177b30a883c2b42"},
		{1 << 14, 1, "c8221608c385828c303691370222449d44c5f1c65149f693db9d4b58aab8367a"},
		{1 << 14, 42, "f0ff9821bb02aba231bd5a7e39acb3b15c40d6f2166b976d51cca07af30077af"},
		{1 << 14, -7, "1bf5311e46b74a09daeac692ef879fd59080e9bb1ff4f540544d516b7236907f"},
	} {
		g := New(tc.pages, tc.seed)
		sum := sha256.Sum256(g.Format().EncodeEdges(nil, g.Generate()))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("pages %d seed %d: digest %s, want %s", tc.pages, tc.seed, got, tc.want)
		}
	}
}

func TestMeanOutDegreeApproximate(t *testing.T) {
	g := New(2000, 7)
	edges := g.Generate()
	mean := float64(len(edges)) / float64(g.Pages)
	if mean < float64(g.MeanOutDegree)*0.7 || mean > float64(g.MeanOutDegree)*1.3 {
		t.Errorf("mean out-degree %.1f, want about %d", mean, g.MeanOutDegree)
	}
}

func TestEveryPageLinksOut(t *testing.T) {
	g := New(300, 3)
	deg := make([]int, g.Pages)
	for _, e := range g.Generate() {
		deg[e.Src]++
	}
	for p, d := range deg {
		if d == 0 {
			t.Fatalf("page %d has no outgoing links", p)
		}
	}
}

func TestInDegreeIsSkewed(t *testing.T) {
	g := New(4000, 9)
	in := make([]int, g.Pages)
	for _, e := range g.Generate() {
		in[e.Dst]++
	}
	sorted := append([]int(nil), in...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, d := range in {
		total += d
	}
	top := 0
	for _, d := range sorted[:len(sorted)/100] {
		top += d
	}
	if frac := float64(top) / float64(total); frac < 0.15 {
		t.Errorf("top 1%% of pages receive %.2f of links, want >= 0.15 (power-law hubs)", frac)
	}
}

func TestLinkLocality(t *testing.T) {
	g := New(10000, 5)
	intra, total := 0, 0
	for _, e := range g.Generate() {
		total++
		if uint64(e.Src)/g.SiteSize == uint64(e.Dst)/g.SiteSize {
			intra++
		}
	}
	frac := float64(intra) / float64(total)
	// IntraSite=0.7 plus chance hits; allow a generous band.
	if frac < 0.5 || frac > 0.95 {
		t.Errorf("intra-site link fraction %.2f, want within [0.5, 0.95]", frac)
	}
}

func TestTinySiteSizeFloor(t *testing.T) {
	g := New(16, 1)
	if g.SiteSize < 4 {
		t.Errorf("site size %d, want >= 4", g.SiteSize)
	}
	for _, e := range g.Generate() {
		if uint64(e.Dst) >= g.Pages {
			t.Fatalf("edge %+v out of range for tiny graph", e)
		}
	}
}
