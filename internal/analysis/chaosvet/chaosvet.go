// Package chaosvet registers the repo's analyzers in one place, shared
// by the cmd/chaos-vet multichecker and the meta-test that keeps every
// registered analyzer covered by fixtures.
package chaosvet

import (
	"chaos/internal/analysis/detrange"
	"chaos/internal/analysis/framework"
	"chaos/internal/analysis/wallclock"
)

// All returns every analyzer in the chaos-vet suite, in reporting
// order. Each entry must ship an analysistest fixture under
// internal/analysis/<name>/testdata/ — TestEveryAnalyzerHasFixtures
// enforces it.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		detrange.Analyzer,
		wallclock.Analyzer,
	}
}
