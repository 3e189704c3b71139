package core

import "testing"

// TestWarmQueryAllocBudget pins the allocation budget of a warm
// cache-hit query. A warm Synthesize clones the compiled base (the
// arena makes that a handful of slab copies, not one allocation per
// clause) and re-solves under assumptions, so its allocation count is
// small and stable — measured ~150 allocs/run on the mini KB now that
// objective circuits are built only on demand (~340 while every base
// carried the cost/power/port adders). The budget below has ~1.7x
// headroom for incidental churn; blowing past it means a structural
// regression (per-clause heap objects creeping back, clone losing its
// slab packing, per-query encode work on the warm path, circuits
// creeping back into every base) that BenchmarkQuery1 would only surface
// at the next manual bench run.
func TestWarmQueryAllocBudget(t *testing.T) {
	const budget = 250

	e := mustEngine(t, miniKB())
	sc := Scenario{}
	for i := 0; i < 2; i++ { // warm: compile once, settle caches
		if _, err := e.Synthesize(sc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		rep, err := e.Synthesize(sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != Feasible {
			t.Fatal("warm query must stay feasible")
		}
	})
	t.Logf("warm cache-hit Synthesize: %.0f allocs/run", allocs)
	if allocs > budget {
		t.Fatalf("warm cache-hit Synthesize allocated %.0f allocs/run; budget is %d", allocs, budget)
	}
}
