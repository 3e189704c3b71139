package core

import (
	"testing"

	"netarch/internal/intlin"
	"netarch/internal/sat"
)

// objectiveMetric names the design metric each int-backed objective
// minimizes. Design metrics for cost, power and ports are plain
// arithmetic over the selected SKUs (designFrom), while the optimizer
// descends over bit-blasted circuits built on demand (objectiveInt); the
// tests below hold the two to the same numbers.
var objectiveMetric = map[ObjectiveKind]string{
	MinimizeCost:  "cost_usd",
	MinimizePower: "power_w",
	MinimizePorts: "switch_ports",
	MinimizeCores: "cores_used",
}

// TestMetricsAgreeWithCircuits optimizes every int-backed objective on
// each feasible §5.1 shape under both strategies and checks the
// certified optimum equals the witness design's metric; Pareto fronts
// must agree point by point. Queries sharing a compiled shape add no
// coverage (the circuits are built from the shape), so each shape runs
// once, through its first feasible §5.1 query.
func TestMetricsAgreeWithCircuits(t *testing.T) {
	k, cases := caseStudyQueries()
	e := mustEngine(t, k)
	kinds := []ObjectiveKind{MinimizeCost, MinimizePower, MinimizePorts, MinimizeCores}
	shapes := map[string]bool{}
	for _, q := range cases {
		shape := baseShape(&q.sc)
		if shapes[shape.fingerprint()] {
			continue
		}
		if rep, err := e.Synthesize(q.sc); err != nil {
			t.Fatal(err)
		} else if rep.Verdict != Feasible {
			continue
		}
		shapes[shape.fingerprint()] = true
		for _, strat := range []OptimizeStrategy{StrategyBinary, StrategyLinear} {
			for _, kind := range kinds {
				res, err := optimizeWith(e, q.sc, []Objective{{Kind: kind}}, strat)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", q.name, strat, kind, err)
				}
				if res.Verdict != Feasible || res.Approximate {
					t.Fatalf("%s/%v/%v: want a certified feasible optimum, got %v approx=%v",
						q.name, strat, kind, res.Verdict, res.Approximate)
				}
				if got, want := res.ObjectiveValues[0], res.Design.Metrics[objectiveMetric[kind]]; got != want {
					t.Errorf("%s/%v/%v: objective value %d, design metric %s = %d",
						q.name, strat, kind, got, objectiveMetric[kind], want)
				}
			}
		}
		checkPareto(t, e, q.name, q.sc, MinimizePorts, MinimizeCores)
	}
	if len(shapes) < 3 {
		t.Fatalf("covered %d feasible §5.1 shapes, want 3", len(shapes))
	}
	// A front over two hardware totals takes seconds per shape, so the
	// cost × power front runs once, on the §5.1 query whose pinned system
	// keeps it quick.
	for _, q := range cases {
		if q.name == "q2-keep-sonata" {
			checkPareto(t, e, q.name, q.sc, MinimizeCost, MinimizePower)
		}
	}
}

// checkPareto computes the Pareto front over two objectives and checks
// every point's values against its witness design's metrics.
func checkPareto(t *testing.T, e *Engine, name string, sc Scenario, a, b ObjectiveKind) {
	t.Helper()
	pair := []ObjectiveKind{a, b}
	pr, err := paretoOf(e, sc, []Objective{{Kind: a}, {Kind: b}}, StrategyBinary)
	if err != nil {
		t.Fatalf("%s/pareto %v: %v", name, pair, err)
	}
	if !pr.Complete || len(pr.Points) == 0 {
		t.Fatalf("%s/pareto %v: complete=%v with %d points", name, pair, pr.Complete, len(pr.Points))
	}
	for _, p := range pr.Points {
		for i, kind := range pair {
			if got, want := p.Values[i], p.Design.Metrics[objectiveMetric[kind]]; got != want {
				t.Errorf("%s/pareto %v: point %v has %s = %d", name, pair, p.Values, objectiveMetric[kind], want)
			}
		}
	}
}

// TestCostCapCircuitAgreesWithMetric checks, on cost-capped shapes, that
// the base's own cost circuit — the one the budget:cost selector bounds —
// evaluates to the arithmetic cost_usd in the model it was solved under,
// for a loose cap and for a cap at the exact optimum.
func TestCostCapCircuitAgreesWithMetric(t *testing.T) {
	k, _ := caseStudyQueries()
	e := mustEngine(t, k)
	uncapped := Scenario{Workloads: []string{"inference_app"}}
	opt, err := e.Optimize(uncapped, []Objective{{Kind: MinimizeCost}})
	if err != nil {
		t.Fatal(err)
	}
	minCost := opt.ObjectiveValues[0]
	for _, limit := range []int64{minCost, 4 * minCost} {
		sc := uncapped
		sc.MaxCostUSD = limit
		c, err := e.instance(&sc)
		if err != nil {
			t.Fatal(err)
		}
		if c.costTotal.Width() == 0 {
			t.Fatalf("cap %d: capped base carries no cost circuit", limit)
		}
		if st := c.solver.SolveAssuming(c.assumptions()); st != sat.Sat {
			t.Fatalf("cap %d: status %v, want Sat", limit, st)
		}
		model := c.solver.Model()
		d := c.designFrom(model)
		if got, want := intlin.ValueOf(c.costTotal, model), d.Metrics["cost_usd"]; got != want {
			t.Errorf("cap %d: cost circuit = %d, arithmetic cost_usd = %d", limit, got, want)
		}
		if d.Metrics["cost_usd"] > limit {
			t.Errorf("cap %d: design costs %d", limit, d.Metrics["cost_usd"])
		}
		res, err := e.Optimize(sc, []Objective{{Kind: MinimizeCost}})
		if err != nil {
			t.Fatal(err)
		}
		if res.ObjectiveValues[0] != minCost || res.Design.Metrics["cost_usd"] != minCost {
			t.Errorf("cap %d: optimum %d with metric %d, want %d",
				limit, res.ObjectiveValues[0], res.Design.Metrics["cost_usd"], minCost)
		}
	}
}
