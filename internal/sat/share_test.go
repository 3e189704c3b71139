package sat

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestShareImportValidates pins the importer's validation contract: an
// imported clause is never out of the consumer's variable range, zero
// literals and own publishes are dropped, and each entry imports once.
func TestShareImportValidates(t *testing.T) {
	ring := NewClauseRing(8)
	s := NewSolver()
	s.EnsureVars(3)
	s.AddClause(1, 2)
	s.SetShare(ring, 1, DefaultShareLBD, true)

	ring.Publish(0, []Lit{5})      // variable beyond the importer's range
	ring.Publish(0, []Lit{0, 1})   // zero literal
	ring.Publish(1, []Lit{2})      // importer's own src id
	ring.Publish(0, []Lit{-1, -2}) // valid

	if !s.importShared() {
		t.Fatal("importShared reported unsat on a satisfiable mix")
	}
	if got := s.Stats().Imported; got != 1 {
		t.Fatalf("Imported = %d, want 1 (only the valid foreign clause)", got)
	}
	if n := s.NumVars(); n != 3 {
		t.Fatalf("import grew the variable space to %d", n)
	}
	// Entries are consumed once: a second sweep adds nothing.
	if !s.importShared() {
		t.Fatal("second importShared reported unsat")
	}
	if got := s.Stats().Imported; got != 1 {
		t.Fatalf("Imported = %d after resweep, want 1", got)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve = %v, want Sat", st)
	}
}

// TestShareSkipsTornEntries: a slot mid-write (odd sequence) is skipped
// without being marked seen, so the entry is picked up once the writer
// releases it.
func TestShareSkipsTornEntries(t *testing.T) {
	ring := NewClauseRing(4)
	s := NewSolver()
	s.EnsureVars(4)
	s.SetShare(ring, 1, DefaultShareLBD, true)

	if !ring.Publish(0, []Lit{3, 4}) {
		t.Fatal("publish into an empty ring failed")
	}
	var slot *shareSlot
	for i := range ring.slots {
		if ring.slots[i].ticket.Load() != 0 {
			slot = &ring.slots[i]
		}
	}
	seq := slot.seq.Load()
	slot.seq.Store(seq | 1) // simulate a writer holding the slot
	s.importShared()
	if got := s.Stats().Imported; got != 0 {
		t.Fatalf("imported %d clauses from a mid-write slot", got)
	}
	slot.seq.Store(seq &^ 1) // writer releases
	s.importShared()
	if got := s.Stats().Imported; got != 1 {
		t.Fatalf("Imported = %d after release, want 1", got)
	}
}

// TestShareImportUnsat: an imported unit conflicting with a level-0 fact
// exposes unsatisfiability through importShared's false return, the same
// contract AddClause has.
func TestShareImportUnsat(t *testing.T) {
	ring := NewClauseRing(4)
	s := NewSolver()
	s.EnsureVars(2)
	s.AddClause(1) // fact: x1
	s.SetShare(ring, 1, DefaultShareLBD, true)
	ring.Publish(0, []Lit{-1})
	if s.importShared() {
		t.Fatal("importShared missed the implied empty clause")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("Solve = %v after conflicting import, want Unsat", st)
	}
}

// TestShareConcurrentHammer races publishers spraying arbitrary (partly
// garbage) clauses against an importing solver. The property under test
// is pure safety — no panic, no out-of-range clause, race-clean under
// -race — not progress; torn and dropped entries are expected.
func TestShareConcurrentHammer(t *testing.T) {
	ring := NewClauseRing(16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lits := make([]Lit, 1+r.Intn(maxSharedLits))
				for j := range lits {
					v := 1 + r.Intn(40) // half the range is out of bounds for the importer
					if r.Intn(2) == 0 {
						v = -v
					}
					lits[j] = Lit(v)
				}
				ring.Publish(w, lits)
			}
		}(w)
	}
	s := NewSolver()
	s.EnsureVars(20)
	s.SetShare(ring, 99, DefaultShareLBD, true)
	for i := 0; i < 500; i++ {
		if !s.importShared() {
			break // arbitrary clauses may well be jointly unsat; still safe
		}
	}
	close(stop)
	wg.Wait()
	if n := s.NumVars(); n != 20 {
		t.Fatalf("hammer grew the importer's variable space to %d", n)
	}
}

// TestRingDropsOversized: Publish refuses empty and oversized clauses.
func TestRingDropsOversized(t *testing.T) {
	ring := NewClauseRing(2)
	if ring.Publish(0, nil) {
		t.Fatal("published an empty clause")
	}
	long := make([]Lit, maxSharedLits+1)
	for i := range long {
		long[i] = Lit(i + 1)
	}
	if ring.Publish(0, long) {
		t.Fatal("published an oversized clause")
	}
	if ring.Published() != 0 {
		t.Fatalf("Published = %d, want 0", ring.Published())
	}
}

// TestPortfolioSharesClauses: on a hard UNSAT instance with several
// workers, learnt clauses actually flow through the ring (the perf story
// of the portfolio depends on it).
func TestPortfolioSharesClauses(t *testing.T) {
	clauses, nVars := pigeonholeClauses(7)
	configs := make([]Options, 4)
	for i := range configs {
		configs[i] = PortfolioOptions(i, Options{})
	}
	res := RacePortfolio(context.Background(), portfolioSolvers(clauses, nVars, configs), nil)
	if res.Status != Unsat {
		t.Fatalf("PHP(7) = %v, want Unsat", res.Status)
	}
	if res.Stats.Exported == 0 {
		t.Fatalf("no clauses exported: %+v", res.Stats)
	}
}

// pigeonholeClauses is PHP(n+1 pigeons, n holes) as a clause list (the
// solver-loading variant lives in solver_test.go).
func pigeonholeClauses(n int) (clauses [][]Lit, nVars int) {
	v := func(p, h int) Lit { return Lit(p*n + h + 1) } // p in [0,n], h in [0,n)
	for p := 0; p <= n; p++ {
		row := make([]Lit, n)
		for h := 0; h < n; h++ {
			row[h] = v(p, h)
		}
		clauses = append(clauses, row)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				clauses = append(clauses, []Lit{-v(p1, h), -v(p2, h)})
			}
		}
	}
	return clauses, (n + 1) * n
}

// TestRacePortfolioWorkerInvariance pins the determinism contract at the
// sat layer: Status, Winner, and the model (byte for byte) are identical
// for 1, 2, 4, and 8 workers, on both satisfiable and unsatisfiable
// instances.
func TestRacePortfolioWorkerInvariance(t *testing.T) {
	type instance struct {
		name    string
		clauses [][]Lit
		nVars   int
	}
	var cases []instance
	phpClauses, phpVars := pigeonholeClauses(6)
	cases = append(cases, instance{"php6", phpClauses, phpVars})
	r := rand.New(rand.NewSource(7))
	for len(cases) < 4 {
		nVars := 14 + r.Intn(4)
		cl := randomInstance(r, nVars, nVars*3, 3)
		if ok, _ := bruteForce(nVars, cl); ok {
			cases = append(cases, instance{"sat-rand", cl, nVars})
		}
	}

	run := func(inst instance, workers int) PortfolioResult {
		base := NewSolver()
		base.EnsureVars(inst.nVars)
		for _, c := range inst.clauses {
			base.AddClause(c...)
		}
		solvers := make([]*Solver, workers)
		solvers[0] = base
		for i := 1; i < workers; i++ {
			s := base.Clone()
			s.SetOptions(PortfolioOptions(i, Options{}))
			solvers[i] = s
		}
		return RacePortfolio(context.Background(), solvers, nil)
	}

	for _, inst := range cases {
		want := run(inst, 1)
		for _, w := range []int{2, 4, 8} {
			got := run(inst, w)
			if got.Status != want.Status || got.Winner != want.Winner {
				t.Fatalf("%s workers=%d: (%v, winner %d), want (%v, winner %d)",
					inst.name, w, got.Status, got.Winner, want.Status, want.Winner)
			}
			if len(got.Model) != len(want.Model) {
				t.Fatalf("%s workers=%d: model length %d, want %d", inst.name, w, len(got.Model), len(want.Model))
			}
			for i := range got.Model {
				if got.Model[i] != want.Model[i] {
					t.Fatalf("%s workers=%d: model diverges at var %d", inst.name, w, i+1)
				}
			}
		}
	}
}
