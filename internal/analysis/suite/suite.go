// Package suite registers the detlint analyzer set: the five domain
// determinism analyzers (rules D1–D5) and the perf/concurrency family
// (rules P1 and C1–C3). Standard checks such as copylocks come from
// go vet, which ships with the toolchain. cmd/detlint and the analyzer
// integration tests consume this list; keep it sorted by name so every
// consumer runs and prints analyzers in the same order.
package suite

import (
	"mcmnpu/internal/analysis"
	"mcmnpu/internal/analysis/passes/atomicmix"
	"mcmnpu/internal/analysis/passes/ctxflow"
	"mcmnpu/internal/analysis/passes/goroleak"
	"mcmnpu/internal/analysis/passes/hotpathalloc"
	"mcmnpu/internal/analysis/passes/lockorder"
	"mcmnpu/internal/analysis/passes/mapiterorder"
	"mcmnpu/internal/analysis/passes/orderedreduce"
	"mcmnpu/internal/analysis/passes/pooldiscipline"
	"mcmnpu/internal/analysis/passes/seedpurity"
)

// All returns the full detlint suite in name order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxflow.Analyzer,
		goroleak.Analyzer,
		hotpathalloc.Analyzer,
		lockorder.Analyzer,
		mapiterorder.Analyzer,
		orderedreduce.Analyzer,
		pooldiscipline.Analyzer,
		seedpurity.Analyzer,
	}
}
