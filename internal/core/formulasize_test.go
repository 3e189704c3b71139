package core

import (
	"testing"

	"netarch/internal/catalog"
)

// TestFormulaSizeGolden pins the size of representative compiled bases:
// solver variables and problem clauses after the base's Simplify pass.
// Every query clones and propagates through its base, so these counts
// are the warm path's cost floor, and a change that grows them (another
// circuit bolted onto every base, a wider encoding) must show up here
// rather than as an unexplained slowdown. The numbers are deterministic
// — compilation is byte-identical for every worker count — so any
// change to them must be deliberate and recorded with its reason.
//
// The bases cover the §5.1 seed shapes (the case-study catalog plus the
// two extra §5.1 workloads), one cost-capped shape (the only base that
// carries the cost adder), and one relevance slice of a 5k-SKU scaled
// catalog (the muxed-total compile tier).
func TestFormulaSizeGolden(t *testing.T) {
	type size struct{ vars, clauses int }
	three := []string{"inference_app", "batch_analytics", "storage_backend"}
	cases := []struct {
		name string
		skus int // 0: case-study catalog; otherwise ScaledCatalog(skus)
		sc   Scenario
		want size
	}{
		{"seed/inference", 0, Scenario{Workloads: []string{"inference_app"}}, size{2691, 13914}},
		{"seed/three-workloads", 0, Scenario{Workloads: three}, size{2705, 13867}},
		{"seed/three-workloads-64-no-cxl", 0, Scenario{Workloads: three, NumServers: 64,
			Context: map[string]bool{"cxl_pooling": false}}, size{2781, 13337}},
		{"seed/three-workloads-64-cxl", 0, Scenario{Workloads: three, NumServers: 64,
			Context: map[string]bool{"cxl_pooling": true}}, size{2781, 13337}},
		{"seed/inference-cost-capped", 0, Scenario{Workloads: []string{"inference_app"},
			MaxCostUSD: 5_000_000}, size{26125, 51246}},
		{"scaled-5k/inference-slice", 5000, Scenario{Workloads: []string{"inference_app"}}, size{2225, 16023}},
	}
	seed, _ := caseStudyQueries()
	seedEngine := mustEngine(t, seed)
	var scaled *Engine
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := seedEngine
			if tc.skus > 0 {
				if scaled == nil {
					scaled = mustEngine(t, catalog.ScaledCatalog(tc.skus))
					scaled.SetSliceMode(SliceOn)
				}
				e = scaled
			}
			sc := tc.sc
			base, _, err := e.baseFor(&sc)
			if err != nil {
				t.Fatal(err)
			}
			if tc.skus > 0 && base.sliceID == "" {
				t.Fatal("scaled-catalog base was not sliced")
			}
			got := size{base.solver.NumVars(), base.solver.NumClauses()}
			if got != tc.want {
				t.Errorf("base size = %d vars / %d clauses, want %d / %d (update the golden only for a deliberate encoding change, and record it in CHANGES.md)",
					got.vars, got.clauses, tc.want.vars, tc.want.clauses)
			}
		})
	}
}
