package core

import (
	"context"
	"testing"

	"netarch/internal/sat"
)

// optimizeWith runs an optimize query with an explicit strategy.
func optimizeWith(e *Engine, sc Scenario, objs []Objective, strat OptimizeStrategy) (*OptimizeResult, error) {
	res, err := e.Do(context.Background(), Query{Kind: QueryOptimize, Scenario: sc, Objectives: objs, Strategy: strat})
	if err != nil {
		return nil, err
	}
	return res.Optimum, nil
}

// paretoOf runs a pareto query with an explicit strategy.
func paretoOf(e *Engine, sc Scenario, objs []Objective, strat OptimizeStrategy) (*ParetoResult, error) {
	res, err := e.Do(context.Background(), Query{Kind: QueryPareto, Scenario: sc, Objectives: objs, Strategy: strat})
	if err != nil {
		return nil, err
	}
	return res.Pareto, nil
}

// TestDoValidates pins the request checks Do makes before any compile:
// a check needs a design, optimize and pareto need an objective, and an
// unknown kind is refused.
func TestDoValidates(t *testing.T) {
	e := mustEngine(t, miniKB())
	for _, tc := range []struct {
		q    Query
		want string
	}{
		{Query{Kind: QueryCheck}, "check requires a design"},
		{Query{Kind: QueryOptimize}, "optimize requires at least one objective"},
		{Query{Kind: QueryPareto}, "optimize requires at least one objective"},
		{Query{Kind: QueryKind(99)}, "core: unknown query kind"},
	} {
		res, err := e.Do(context.Background(), tc.q)
		if res != nil || err == nil || err.Error() != tc.want {
			t.Errorf("%v: got (%v, %v), want error %q", tc.q.Kind, res, err, tc.want)
		}
	}
	if st := e.CacheStats(); st.Misses != 0 {
		t.Errorf("rejected queries compiled %d bases", st.Misses)
	}
}

// TestDoResultFields pins which Result fields each kind sets.
func TestDoResultFields(t *testing.T) {
	e := mustEngine(t, miniKB())
	ctx := context.Background()
	syn, err := e.Do(ctx, Query{Kind: QuerySynthesize})
	if err != nil || syn.Report == nil || syn.Report.Design == nil {
		t.Fatalf("synthesize: %+v, %v", syn, err)
	}
	ex, err := e.Do(ctx, Query{Kind: QueryExplain})
	if err != nil || ex.Report == nil || ex.Report.Verdict != Feasible || ex.Report.Design != nil {
		t.Fatalf("explain must answer the verdict without a witness: %+v, %v", ex, err)
	}
	opt, err := e.Do(ctx, Query{Kind: QueryOptimize, Objectives: []Objective{{Kind: MinimizeCost}}})
	if err != nil || opt.Optimum == nil || opt.Report != &opt.Optimum.Report {
		t.Fatalf("optimize: %+v, %v", opt, err)
	}
	dis, err := e.Do(ctx, Query{Kind: QueryDisambiguate, Limit: 4})
	if err != nil || dis.Disambiguation == nil || dis.Enumeration == nil ||
		dis.Disambiguation.Classes != len(dis.Enumeration.Designs) {
		t.Fatalf("disambiguate: %+v, %v", dis, err)
	}
	for i, r := range []*Result{syn, ex, opt, dis} {
		if cause, ok := r.Degraded(); ok {
			t.Errorf("result %d: unbudgeted query degraded (%s)", i, cause)
		}
	}
	if syn.Spent() != syn.Report.Spent || dis.Spent() != dis.Enumeration.Spent {
		t.Error("Spent does not report the kind's own accounting")
	}
}

// TestDoDegraded: a budget trip that leaves a usable answer is reported
// by Degraded with the tripped budget's name, for each degradable kind.
func TestDoDegraded(t *testing.T) {
	ctx := context.Background()
	trip := func(after int) *Engine {
		e := mustEngine(t, miniKB())
		e.SetWorkers(1)
		solves := 0
		e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
			if ev == sat.EventSolve {
				solves++
				return solves > after
			}
			return false
		})
		return e
	}
	for _, tc := range []struct {
		e *Engine
		q Query
	}{
		{trip(1), Query{Kind: QueryExplain, Scenario: unsatScenario()}},
		{trip(1), Query{Kind: QueryOptimize, Objectives: []Objective{{Kind: MinimizeCost}}}},
		{trip(1), Query{Kind: QueryEnumerate, Limit: 100}},
		{trip(1), Query{Kind: QueryPareto, Objectives: []Objective{{Kind: MinimizeCost}, {Kind: MinimizePower}}}},
	} {
		res, err := tc.e.Do(ctx, tc.q)
		if err != nil {
			t.Fatalf("%v: degraded query must not error: %v", tc.q.Kind, err)
		}
		if cause, ok := res.Degraded(); !ok || cause != "interrupt" {
			t.Errorf("%v: Degraded() = (%q, %v), want (interrupt, true)", tc.q.Kind, cause, ok)
		}
	}

	// An infeasible optimize whose explanation went approximate is not
	// degraded: its optimum (none exists) is certified.
	res, err := trip(1).Do(ctx, Query{Kind: QueryOptimize, Scenario: unsatScenario(), Objectives: []Objective{{Kind: MinimizeCost}}})
	if err != nil || res.Report.Verdict != Infeasible || !res.Report.Explanation.Approximate {
		t.Fatalf("infeasible optimize: want an approximate explanation, got %+v, %v", res, err)
	}
	if cause, ok := res.Degraded(); ok {
		t.Errorf("infeasible optimize degraded by its explanation (%s)", cause)
	}
}
