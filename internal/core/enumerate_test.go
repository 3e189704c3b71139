package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"netarch/internal/kb"
	"netarch/internal/sat"
)

func TestLessSystemsElementwise(t *testing.T) {
	// Regression: the old sort key fmt.Sprint(systems) renders
	// ["a b","c"] and ["a","b c"] identically ("[a b c]"), so their
	// relative order was undefined. Element-wise comparison keeps them
	// distinct and total.
	cases := []struct {
		a, b []string
		want bool
	}{
		{[]string{"a", "b c"}, []string{"a b", "c"}, true},
		{[]string{"a b", "c"}, []string{"a", "b c"}, false},
		{[]string{"a"}, []string{"a", "b"}, true},
		{[]string{"a", "b"}, []string{"a"}, false},
		{[]string{"a", "b"}, []string{"a", "b"}, false},
		{nil, []string{"a"}, true},
		{nil, nil, false},
		{[]string{"cubic", "linux"}, []string{"dctcp", "linux"}, true},
	}
	for _, tc := range cases {
		if got := lessSystems(tc.a, tc.b); got != tc.want {
			t.Errorf("lessSystems(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// hardwareOnlyKB is a valid knowledge base with an empty system
// vocabulary: hardware must still be selected, but no system variable
// exists to project designs onto.
func hardwareOnlyKB() *kb.KB {
	return &kb.KB{Hardware: miniKB().Hardware}
}

func TestEnumerateEmptyProjection(t *testing.T) {
	// Regression: with no system variables the blocking clause is empty,
	// and the old loop asserted it — AddClause() with zero literals
	// poisons the solver (okay=false) and needs a second, vacuous solve
	// to notice the enumeration is "done". The guard decides the single
	// (empty) class in exactly one solve and reports completion.
	e := mustEngine(t, hardwareOnlyKB())
	e.SetWorkers(1)
	solves := 0
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			solves++
		}
		return false
	})
	res, err := e.EnumerateCtx(context.Background(), Scenario{}, 10, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Exhausted != nil || res.Reason != "" {
		t.Fatalf("empty projection must terminate as complete: %+v", res)
	}
	if len(res.Designs) != 1 {
		t.Fatalf("got %d designs, want the single empty class", len(res.Designs))
	}
	if d := res.Designs[0]; len(d.Systems) != 0 || len(d.Hardware) == 0 {
		t.Fatalf("empty-class design wrong: systems=%v hardware=%v", d.Systems, d.Hardware)
	}
	if solves != 1 {
		t.Errorf("empty projection took %d solves, want 1 (no poisoned re-solve)", solves)
	}
}

func TestEnumerateEmptyProjectionInfeasible(t *testing.T) {
	// An infeasible instance with no system vocabulary is a complete,
	// empty enumeration — not a truncation.
	k := hardwareOnlyKB()
	e := mustEngine(t, k)
	sc := Scenario{Context: map[string]bool{"pfc_enabled": true}}
	// Force infeasibility through contradictory context pins on a KB
	// with the pfc_no_flooding rule but no systems.
	k2 := &kb.KB{Hardware: k.Hardware, Rules: miniKB().Rules}
	e = mustEngine(t, k2)
	sc = Scenario{Context: map[string]bool{"pfc_enabled": true, "flooding_enabled": true}}
	res, err := e.EnumerateCtx(context.Background(), sc, 10, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || len(res.Designs) != 0 {
		t.Fatalf("infeasible empty projection must be complete and empty: %+v", res)
	}
}

// enumKey renders a result for byte-identity comparison, excluding Spent
// (the one field the determinism contract lets vary).
func enumKey(res *EnumerateResult) [3]interface{} {
	return [3]interface{}{res.Designs, res.Truncated, res.Reason}
}

func TestEnumerateWorkerCountInvariance(t *testing.T) {
	// The determinism contract: Designs (content and order), Truncated,
	// and Reason must not depend on the worker count — across the
	// complete path (max above the space), the exact-fit path, and the
	// capped path (max below the space).
	e := mustEngine(t, miniKB())
	for _, max := range []int{1, 2, 3, 100} {
		e.SetWorkers(1)
		want, err := e.EnumerateCtx(context.Background(), Scenario{}, max, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 8} {
			e.SetWorkers(w)
			got, err := e.EnumerateCtx(context.Background(), Scenario{}, max, Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(enumKey(got), enumKey(want)) {
				t.Errorf("max=%d workers=%d diverges from sequential:\nseq: %+v\npar: %+v",
					max, w, want, got)
			}
			if (got.Exhausted == nil) != (want.Exhausted == nil) {
				t.Errorf("max=%d workers=%d: Exhausted nil-ness diverges", max, w)
			}
		}
	}
}

func TestEnumerateRepeatedRunsIdentical(t *testing.T) {
	// Within one worker setting, repeated enumerations must be
	// byte-identical too: blocking clauses and canonical pins are built
	// in sorted vocabulary order, so no map-iteration nondeterminism
	// can leak into the search.
	e := mustEngine(t, miniKB())
	e.SetWorkers(4)
	first, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(enumKey(first), enumKey(again)) {
			t.Fatalf("run %d diverges from the first:\n%+v\nvs\n%+v", i+2, first, again)
		}
	}
}

func TestEnumerateCacheOffMatchesCacheOn(t *testing.T) {
	// The cache-off path specializes the private base directly (no
	// clone); both paths must yield identical enumerations.
	on := mustEngine(t, miniKB())
	off := mustEngine(t, miniKB())
	off.SetCacheCapacity(0)
	a, err := on.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := off.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enumKey(a), enumKey(b)) {
		t.Fatalf("cache-on and cache-off enumerations diverge:\n%+v\nvs\n%+v", a, b)
	}
}

func TestEnumerateNonPositiveMax(t *testing.T) {
	// max <= 0 must keep the historical contract: compile, admit
	// nothing, report a (vacuous) limit truncation.
	e := mustEngine(t, miniKB())
	for _, max := range []int{0, -3} {
		res, err := e.EnumerateCtx(context.Background(), Scenario{}, max, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated || res.Reason != "limit" || len(res.Designs) != 0 || res.Exhausted != nil {
			t.Fatalf("max=%d: %+v", max, res)
		}
	}
}

func TestEnumerateConcurrentQueries(t *testing.T) {
	// Parallel enumerations from many goroutines over one engine must
	// not interfere: private clones per worker, atomic cache counters,
	// per-query governors. Run with -race.
	e := mustEngine(t, miniKB())
	e.SetWorkers(2)
	want, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(enumKey(got), enumKey(want)) {
				t.Errorf("concurrent enumeration diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDisambiguateLimitTruncationIncomplete(t *testing.T) {
	// Regression: a limit-truncated enumeration (Truncated=true,
	// Exhausted=nil) is a provably partial class set, so the
	// disambiguation built from it must be marked Incomplete — the old
	// code keyed on Exhausted and reported it as complete.
	e := mustEngine(t, miniKB())
	d, err := e.Disambiguate(Scenario{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Classes != 1 {
		t.Fatalf("got %d classes, want exactly the limit", d.Classes)
	}
	if !d.Incomplete {
		t.Fatal("limit-truncated disambiguation must be Incomplete")
	}
	// A complete enumeration must stay complete.
	full, err := e.Disambiguate(Scenario{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if full.Incomplete {
		t.Fatalf("complete disambiguation mislabeled: %+v", full)
	}
}
