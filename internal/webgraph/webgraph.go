// Package webgraph generates a synthetic hyperlink graph standing in for
// the Web Data Commons 2014 crawl used in the paper (§8: 1.7 billion pages,
// 64 billion hyperlinks, 1 TB input).
//
// The real dataset is not redistributable at this scale, so we synthesize a
// graph with the statistics that matter to Chaos: a power-law in-degree
// distribution (hubs), a bounded, skewed out-degree distribution (pages
// link to tens of pages), and link locality (most links stay within a
// "site", a contiguous ID range). These properties drive the same partition
// imbalance and update-volume skew as the crawl.
package webgraph

import (
	"math"
	"math/rand"

	"chaos/internal/graph"
)

// Generator produces a synthetic web crawl.
type Generator struct {
	// Pages is the number of vertices.
	Pages uint64
	// MeanOutDegree is the average number of links per page. The Data
	// Commons 2014 crawl averages ~37; the default used by New is scaled
	// alongside the page count.
	MeanOutDegree int
	// SiteSize is the number of consecutive page IDs forming one site.
	SiteSize uint64
	// IntraSite is the probability that a link targets the same site.
	IntraSite float64
	// InExponent is the power-law exponent for target popularity
	// (in-degree); crawls measure roughly 2.1.
	InExponent float64
	// Seed selects the random stream.
	Seed int64
}

// New returns a generator with crawl-like defaults for the given number of
// pages.
func New(pages uint64, seed int64) *Generator {
	siteSize := pages / 64
	if siteSize < 4 {
		siteSize = 4
	}
	return &Generator{
		Pages:         pages,
		MeanOutDegree: 16,
		SiteSize:      siteSize,
		IntraSite:     0.7,
		InExponent:    2.1,
		Seed:          seed,
	}
}

// NumVertices returns the number of pages.
func (g *Generator) NumVertices() uint64 { return g.Pages }

// Format returns the natural binary edge format.
func (g *Generator) Format() graph.Format {
	return graph.FormatFor(g.Pages, false)
}

// Generate materializes the full edge list.
func (g *Generator) Generate() []graph.Edge {
	var edges []graph.Edge
	g.Each(graph.NewScratch(), func(b []graph.Edge) { edges = append(edges, b...) })
	return edges
}

// Each generates the links in a deterministic order a batch at a time:
// it fills batch, which must not be empty, and calls fn on the filled
// part, the last time with the remainder. fn must not keep the slice.
// The draws do not depend on len(batch).
func (g *Generator) Each(batch []graph.Edge, fn func([]graph.Edge)) {
	rng := rand.New(rand.NewSource(g.Seed))
	n := 0
	for p := uint64(0); p < g.Pages; p++ {
		// Out-degree: geometric-ish skew around the mean, min 1.
		d := 1 + rng.Intn(2*g.MeanOutDegree-1)
		for i := 0; i < d; i++ {
			if n == len(batch) {
				fn(batch)
				n = 0
			}
			batch[n] = graph.Edge{Src: graph.VertexID(p), Dst: graph.VertexID(g.target(rng, p))}
			n++
		}
	}
	if n > 0 {
		fn(batch[:n])
	}
}

// target draws a link destination for page p.
func (g *Generator) target(rng *rand.Rand, p uint64) uint64 {
	if rng.Float64() < g.IntraSite {
		site := p / g.SiteSize
		base := site * g.SiteSize
		span := g.SiteSize
		if base+span > g.Pages {
			span = g.Pages - base
		}
		return base + g.powerLaw(rng, span)
	}
	return g.powerLaw(rng, g.Pages)
}

// powerLaw draws from [0, n) with P(k) proportional to (k+1)^-InExponent
// via inverse-transform sampling, so low IDs are the popular hubs.
func (g *Generator) powerLaw(rng *rand.Rand, n uint64) uint64 {
	if n <= 1 {
		return 0
	}
	// Inverse CDF of a bounded Pareto on [1, n].
	alpha := g.InExponent - 1 // exponent of the CDF tail
	u := rng.Float64()
	hMin := 1.0
	hMax := math.Pow(float64(n), -alpha)
	x := math.Pow(hMin-u*(hMin-hMax), -1/alpha)
	k := uint64(x) - 1
	if k >= n {
		k = n - 1
	}
	return k
}
