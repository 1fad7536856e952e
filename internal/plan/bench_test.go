package plan_test

import (
	"testing"

	"spjoin/internal/parnative"
	"spjoin/internal/partjoin"
	"spjoin/internal/plan"
	"spjoin/internal/rtree"
)

// execDecision runs a plan the way cmd/spjoin -engine=auto does, so the
// benchmark times the real dispatch surface.
func execDecision(d plan.Decision, r, s []rtree.Item) {
	switch d.Engine {
	case plan.EngineTree:
		rt := rtree.BulkLoadSTR(rtree.DefaultParams(), r, 0.73)
		st := rtree.BulkLoadSTR(rtree.DefaultParams(), s, 0.73)
		parnative.Join(rt, st, parnative.Config{Workers: d.Workers})
	default:
		partjoin.Join(r, s, partjoin.Config{
			Workers:         d.Workers,
			Grid:            d.Grid,
			RefineThreshold: d.RefineThreshold,
		})
	}
}

// BenchmarkAutoVsFixed is the wall-clock side of TestAutoWithinFactorOfBest:
// every corpus workload under the auto plan and under the three fixed plans
// (partition with refinement off, partition with refinement auto, the tree
// join including its build), all one-shot. The planner's aim is an auto row
// within 1.5× of the best fixed row of its workload.
func BenchmarkAutoVsFixed(b *testing.B) {
	const maxWorkers = 4
	for _, c := range fullCorpus() {
		plans := []struct {
			name string
			d    plan.Decision
		}{
			{"auto", plan.Decide(plan.Analyze(c.r, c.s), maxWorkers)},
			{"partition", plan.Decision{Engine: plan.EnginePartition, RefineThreshold: partjoin.RefineDisabled, Workers: maxWorkers}},
			{"partition-refined", plan.Decision{Engine: plan.EnginePartition, RefineThreshold: 0, Workers: maxWorkers}},
			{"tree", plan.Decision{Engine: plan.EngineTree, Workers: maxWorkers}},
		}
		for _, p := range plans {
			b.Run(c.name+"/"+p.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					execDecision(p.d, c.r, c.s)
				}
			})
		}
	}
}
