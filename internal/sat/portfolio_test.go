package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// portfolioSolvers loads the clauses into a base solver built with
// configs[0] and clones one worker per further config, ready for
// RacePortfolio; no configs means three diversified defaults.
func portfolioSolvers(clauses [][]Lit, nVars int, configs []Options) []*Solver {
	if len(configs) == 0 {
		configs = []Options{{}, {NoRestarts: true}, {NoPhaseSaving: true}}
	}
	base := NewSolverOpts(configs[0])
	base.EnsureVars(nVars)
	for _, c := range clauses {
		base.AddClause(c...)
	}
	solvers := []*Solver{base}
	for _, opts := range configs[1:] {
		s := base.Clone()
		s.SetOptions(opts)
		solvers = append(solvers, s)
	}
	return solvers
}

func TestPortfolioSat(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 20; i++ {
		nVars := 10 + r.Intn(8)
		clauses := randomInstance(r, nVars, nVars*3, 3)
		wantSat, _ := bruteForce(nVars, clauses)
		res := RacePortfolio(context.Background(), portfolioSolvers(clauses, nVars, nil), nil)
		if (res.Status == Sat) != wantSat {
			t.Fatalf("instance %d: portfolio %v, want sat=%v", i, res.Status, wantSat)
		}
		if res.Status == Sat {
			if res.Winner < 0 || res.Model == nil {
				t.Fatal("winner/model missing")
			}
			// Model must satisfy every clause.
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					if res.Model[l.Var()-1] != l.Neg() {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("portfolio model violates clause %v", c)
				}
			}
		}
	}
}

func TestPortfolioUnsat(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 7, 6)
	var clauses [][]Lit
	// Rebuild the PHP clauses directly.
	n := 6
	v := func(pn, h int) Lit { return Lit(pn*n + h + 1) }
	for pn := 0; pn < n+1; pn++ {
		var c []Lit
		for h := 0; h < n; h++ {
			c = append(c, v(pn, h))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n+1; p1++ {
			for p2 := p1 + 1; p2 < n+1; p2++ {
				clauses = append(clauses, []Lit{-v(p1, h), -v(p2, h)})
			}
		}
	}
	res := RacePortfolio(context.Background(), portfolioSolvers(clauses, (n+1)*n, []Options{
		{}, {NoRestarts: true}, {StaticOrder: true},
	}), nil)
	if res.Status != Unsat {
		t.Fatalf("PHP must be UNSAT, got %v", res.Status)
	}
}

func TestPortfolioCancellation(t *testing.T) {
	// A hard instance with an already-cancelled context returns Unknown
	// promptly and leaks no goroutines past the call.
	s := NewSolver()
	pigeonhole(s, 12, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var clauses [][]Lit
	n := 11
	v := func(pn, h int) Lit { return Lit(pn*n + h + 1) }
	for pn := 0; pn < n+1; pn++ {
		var c []Lit
		for h := 0; h < n; h++ {
			c = append(c, v(pn, h))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n+1; p1++ {
			for p2 := p1 + 1; p2 < n+1; p2++ {
				clauses = append(clauses, []Lit{-v(p1, h), -v(p2, h)})
			}
		}
	}
	start := time.Now()
	res := RacePortfolio(ctx, portfolioSolvers(clauses, (n+1)*n, nil), nil)
	if res.Status != Unknown || res.Winner != -1 {
		t.Fatalf("cancelled portfolio must be Unknown/-1, got %+v", res)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancellation took too long")
	}
}

func TestInterruptStopsSolve(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 12, 11) // far beyond quick solving
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(20 * time.Millisecond)
	s.Interrupt()
	select {
	case st := <-done:
		if st != Unknown && st != Unsat {
			t.Fatalf("interrupted solve returned %v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Interrupt did not stop the solve")
	}
	// The solver must remain usable afterwards.
	s2 := NewSolver()
	s2.AddClause(1)
	if s2.Solve() != Sat {
		t.Fatal("fresh solve after interrupt broken")
	}
}

func TestInterruptIsSticky(t *testing.T) {
	s := NewSolver()
	s.AddClause(1, 2)
	s.Interrupt()
	if s.Solve() != Unknown {
		t.Fatal("a pending interrupt must stop Solve before it starts")
	}
	s.ClearInterrupt()
	if s.Solve() != Sat {
		t.Fatal("ClearInterrupt must re-arm the solver")
	}
}
