package core

import (
	"context"
	"errors"
)

// This file is the engine's one query path (DESIGN.md §17): every
// question — from the library, the CLI or serve — is a Query value
// answered by Engine.Do.

// QueryKind names the question a Query asks.
type QueryKind int

// Query kinds. Explain is synthesize without the witness design; pareto
// enumerates the non-dominated frontier over the objectives; enumerate,
// suggest and disambiguate stop at Query.Limit classes or correction
// sets.
const (
	QuerySynthesize QueryKind = iota
	QueryCheck
	QueryExplain
	QueryOptimize
	QueryPareto
	QueryEnumerate
	QuerySuggest
	QueryDisambiguate
)

var queryKindNames = [...]string{
	"synthesize", "check", "explain", "optimize", "pareto", "enumerate", "suggest", "disambiguate",
}

// String names the kind as ErrResourceExhausted.Query does.
func (k QueryKind) String() string {
	if k < 0 || int(k) >= len(queryKindNames) {
		return "unknown"
	}
	return queryKindNames[k]
}

// Query is one question to the engine. Fields a kind does not use are
// ignored.
type Query struct {
	Kind     QueryKind
	Scenario Scenario
	// Design is the design a check verifies (required by QueryCheck).
	Design *Design
	// Objectives are the priority-ordered levels of QueryOptimize and
	// the frontier axes of QueryPareto (at least one is required).
	Objectives []Objective
	// Strategy is the MaxSAT descent of QueryOptimize and QueryPareto;
	// the zero value is StrategyBinary.
	Strategy OptimizeStrategy
	// Limit caps the classes of QueryEnumerate and QueryDisambiguate and
	// the correction sets of QuerySuggest.
	Limit int
	// Budget bounds the query's resources; the zero value is unbounded.
	Budget Budget
}

// Result is the answer to one Query. Which fields are set depends on the
// kind:
//
//	synthesize, check, explain  Report
//	optimize                    Optimum, and Report pointing at Optimum.Report
//	pareto                      Pareto
//	enumerate                   Enumeration
//	suggest                     Suggestions (nil when already feasible)
//	disambiguate                Disambiguation, and the Enumeration it was built from
type Result struct {
	Report         *Report
	Optimum        *OptimizeResult
	Pareto         *ParetoResult
	Enumeration    *EnumerateResult
	Suggestions    []*Suggestion
	Disambiguation *Disambiguation
}

// Degraded reports whether a tripped budget left the answer usable but
// uncertified — an approximate optimum, an approximate explanation, a
// budget-truncated enumeration or a partial frontier — and names the
// budget. A class-limit truncation is not degradation, and an optimize
// answer is graded by its optimum alone: the certified INFEASIBLE of an
// optimize is not degraded by an approximate explanation.
func (r *Result) Degraded() (cause string, ok bool) {
	switch {
	case r.Optimum != nil:
		return r.Optimum.ApproxCause, r.Optimum.Approximate
	case r.Report != nil && r.Report.Explanation != nil && r.Report.Explanation.Approximate:
		return r.Report.Explanation.ApproxCause, true
	case r.Enumeration != nil && r.Enumeration.Exhausted != nil:
		return r.Enumeration.Exhausted.Cause, true
	case r.Pareto != nil && r.Pareto.Exhausted != nil:
		return r.Pareto.Exhausted.Cause, true
	}
	return "", false
}

// Spent reports the resources the query consumed (zero for suggest,
// which does not account them).
func (r *Result) Spent() BudgetSpent {
	switch {
	case r.Report != nil:
		return r.Report.Spent
	case r.Pareto != nil:
		return r.Pareto.Spent
	case r.Enumeration != nil:
		return r.Enumeration.Spent
	}
	return BudgetSpent{}
}

// Do answers one query under ctx and q.Budget. It rejects a check
// without a design and an optimize or pareto query without objectives;
// otherwise it returns exactly what the kind's implementation returns.
// On error the Result is nil, with one exception: a suggest query whose
// budget trips mid-enumeration returns the correction sets found so far
// together with the *ErrResourceExhausted.
func (e *Engine) Do(ctx context.Context, q Query) (*Result, error) {
	switch {
	case q.Kind == QueryCheck && q.Design == nil:
		return nil, errors.New("check requires a design")
	case (q.Kind == QueryOptimize || q.Kind == QueryPareto) && len(q.Objectives) == 0:
		return nil, errors.New("optimize requires at least one objective")
	}
	res := &Result{}
	var err error
	switch q.Kind {
	case QuerySynthesize, QueryExplain:
		if res.Report, err = e.run(ctx, q.Kind.String(), q.Scenario, q.Budget); err == nil && q.Kind == QueryExplain {
			res.Report.Design = nil
		}
	case QueryCheck:
		res.Report, err = e.check(ctx, *q.Design, q.Scenario, q.Budget)
	case QueryOptimize:
		if res.Optimum, err = e.optimize(ctx, q.Scenario, q.Objectives, q.Budget, q.Strategy); err == nil {
			res.Report = &res.Optimum.Report
		}
	case QueryPareto:
		res.Pareto, err = e.pareto(ctx, q.Scenario, q.Objectives, q.Budget, q.Strategy)
	case QueryEnumerate:
		res.Enumeration, err = e.enumerate(ctx, q.Scenario, q.Limit, q.Budget)
	case QuerySuggest:
		res.Suggestions, err = e.suggest(ctx, q.Scenario, q.Limit, q.Budget)
	case QueryDisambiguate:
		res.Disambiguation, res.Enumeration, err = e.disambiguate(ctx, q.Scenario, q.Limit, q.Budget)
	default:
		return nil, errors.New("core: unknown query kind")
	}
	if err != nil && res.Suggestions == nil {
		return nil, err
	}
	return res, err
}

// The per-kind methods below are kept for the examples and the benchmark
// clients; each is one Do call that unwraps its kind's field.

// Synthesize answers the existential query: does a compliant design exist
// for the scenario? The report carries a witness design or a minimal
// explanation.
func (e *Engine) Synthesize(sc Scenario) (*Report, error) {
	res, err := e.Do(context.Background(), Query{Kind: QuerySynthesize, Scenario: sc})
	if res == nil {
		return nil, err
	}
	return res.Report, nil
}

// Check verifies a concrete design against the scenario; on violation
// the explanation names the facts the design breaks.
func (e *Engine) Check(design Design, sc Scenario) (*Report, error) {
	res, err := e.Do(context.Background(), Query{Kind: QueryCheck, Scenario: sc, Design: &design})
	if res == nil {
		return nil, err
	}
	return res.Report, nil
}

// Explain returns the minimal explanation of an infeasible scenario (nil
// when the scenario is feasible).
func (e *Engine) Explain(sc Scenario) (*Explanation, error) {
	res, err := e.Do(context.Background(), Query{Kind: QueryExplain, Scenario: sc})
	if res == nil {
		return nil, err
	}
	return res.Report.Explanation, nil
}

// Optimize finds a certified design minimizing the objectives
// lexicographically (the paper's "Optimize(latency > Hardware cost >
// monitoring)", Listing 3) with the default binary descent.
func (e *Engine) Optimize(sc Scenario, objectives []Objective) (*OptimizeResult, error) {
	res, err := e.Do(context.Background(), Query{Kind: QueryOptimize, Scenario: sc, Objectives: objectives})
	if res == nil {
		return nil, err
	}
	return res.Optimum, nil
}

// Suggest computes up to max minimal correction sets for an infeasible
// scenario; nil (no error) when it is already feasible.
func (e *Engine) Suggest(sc Scenario, max int) ([]*Suggestion, error) {
	res, err := e.Do(context.Background(), Query{Kind: QuerySuggest, Scenario: sc, Limit: max})
	if res == nil {
		return nil, err
	}
	return res.Suggestions, err
}

// Disambiguate enumerates up to limit design classes and reports where
// they disagree.
func (e *Engine) Disambiguate(sc Scenario, limit int) (*Disambiguation, error) {
	res, err := e.Do(context.Background(), Query{Kind: QueryDisambiguate, Scenario: sc, Limit: limit})
	if res == nil {
		return nil, err
	}
	return res.Disambiguation, nil
}

// EnumerateCtx lists up to max design classes under ctx and budget b;
// see EnumerateResult for the truncation and determinism contract.
func (e *Engine) EnumerateCtx(ctx context.Context, sc Scenario, max int, b Budget) (*EnumerateResult, error) {
	res, err := e.Do(ctx, Query{Kind: QueryEnumerate, Scenario: sc, Limit: max, Budget: b})
	if res == nil {
		return nil, err
	}
	return res.Enumeration, nil
}
