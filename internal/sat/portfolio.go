package sat

import (
	"context"
	"sync"
	"sync/atomic"
)

// Interrupt asks the solver to stop: a running Solve returns Unknown at
// the next conflict boundary, and any Solve started while the interrupt
// is pending returns Unknown immediately. The flag is sticky — call
// ClearInterrupt to make the solver runnable again. Interrupt is safe to
// call from other goroutines and is idempotent.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// ClearInterrupt re-arms a solver that was stopped with Interrupt.
func (s *Solver) ClearInterrupt() { s.stop.Store(false) }

// interrupted polls and clears nothing — the flag is reset at the start
// of each Solve.
func (s *Solver) interrupted() bool { return s.stop.Load() }

// PortfolioStats aggregates clause-sharing traffic over one race.
type PortfolioStats struct {
	Workers int
	// FirstVerdict is the index of the worker whose definitive verdict
	// arrived first (-1 when none did). Unlike Winner it is NOT
	// deterministic — it reports scheduling, for observability only.
	FirstVerdict int
	Exported     int64 // learnt clauses published to the ring, all workers
	Imported     int64 // ring clauses adopted, all workers
}

// PortfolioResult is the outcome of a portfolio race.
type PortfolioResult struct {
	Status Status
	// Winner is 0 for every definitive verdict and -1 otherwise. The
	// race's determinism contract pins all observable outputs to the
	// reference worker (index 0): helpers can only accelerate an Unsat
	// verdict (implied clauses make any worker's Unsat sound) or salvage
	// a verified model when the reference is cut short, so the reference
	// is always the accountable configuration.
	Winner int
	// Model holds the satisfying assignment when Status is Sat.
	Model []bool
	Stats PortfolioStats
}

// PortfolioOptions returns the diversified option set for worker i of a
// portfolio whose reference (worker 0) runs ref unchanged. Helpers get a
// per-worker seed (VSIDS perturbation + PhaseRandom source) and cycle
// through restart-schedule and phase-polarity variations.
func PortfolioOptions(i int, ref Options) Options {
	o := ref
	if i == 0 {
		return o
	}
	o.Seed = uint64(i)
	switch (i - 1) % 6 {
	case 0:
		o.RestartBase = 50
	case 1:
		o.RestartBase = 100
		o.PhasePolicy = PhaseTrue
	case 2:
		o.RestartBase = 200
		o.PhasePolicy = PhaseRandom
	case 3:
		o.NoRestarts = true
	case 4:
		o.RestartBase = 32
		o.PhasePolicy = PhaseFalse
	case 5:
		o.PhasePolicy = PhaseRandom
	}
	return o
}

// RacePortfolio races the given solvers on the same assumptions and
// returns a verdict that is independent of scheduling. The caller
// provides the solvers (typically: the query's own solver at index 0 and
// diversified clones after it); the race attaches them to a shared
// clause ring for the duration and detaches them before returning.
//
// Determinism contract: worker 0 is the reference — it exports learnt
// clauses but never imports, so its search is byte-identical to running
// it alone. Unsat is accepted from any worker (imported clauses are
// resolvents of the shared instance, so every worker's Unsat is sound).
// Sat is only ever reported with the reference's model; a helper that
// finds a model has it re-verified against its full clause set, which
// proves the verdict and lets the race stop the other helpers, but the
// reference still runs to completion to produce the canonical model.
// The two exceptions — context cancellation and a reference stopped by
// an external budget/interrupt — cannot themselves be deterministic, and
// only there may a verified helper model be salvaged.
//
// Solvers are left interrupted unless the race completed via the
// reference; callers reusing a solver should ClearInterrupt it (taking
// care not to mask an external watchdog's interrupt).
func RacePortfolio(ctx context.Context, solvers []*Solver, assumps []Lit) (res PortfolioResult) {
	n := len(solvers)
	res = PortfolioResult{
		Status: Unknown,
		Winner: -1,
		Stats:  PortfolioStats{Workers: n, FirstVerdict: -1},
	}
	if n == 0 {
		return res
	}
	if n == 1 {
		st := solvers[0].SolveAssuming(assumps)
		res.Status = st
		if st == Sat || st == Unsat {
			res.Winner = 0
			res.Stats.FirstVerdict = 0
		}
		if st == Sat {
			res.Model = append([]bool(nil), solvers[0].Model()...)
		}
		return res
	}

	ring := NewClauseRing(DefaultRingSlots)
	for i, s := range solvers {
		s.SetShare(ring, i, DefaultShareLBD, i != 0)
	}

	type outcome struct {
		idx    int
		status Status
		model  []bool
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i, s := range solvers {
		wg.Add(1)
		go func(i int, s *Solver) {
			defer wg.Done()
			st := s.SolveAssuming(assumps)
			var model []bool
			if st == Sat {
				model = append([]bool(nil), s.Model()...)
			}
			results <- outcome{i, st, model}
		}(i, s)
	}

	// Teardown must run exactly once: both the deferred cleanup and the
	// cancellation/drain path want it, and interrupt+Wait twice would be
	// wasted work at best and a double-Wait hazard at worst.
	var teardownOnce sync.Once
	teardown := func() {
		teardownOnce.Do(func() {
			for _, s := range solvers {
				s.Interrupt()
			}
			wg.Wait()
		})
	}
	defer func() {
		teardown()
		for _, s := range solvers {
			s.SetShare(nil, 0, 0, false)
			res.Stats.Exported += s.stats.Exported
			res.Stats.Imported += s.stats.Imported
		}
	}()

	noteFirst := func(i int) {
		if res.Stats.FirstVerdict < 0 {
			res.Stats.FirstVerdict = i
		}
	}
	satProved := false
	var helperModel []bool

	// drain finishes a race that can no longer be deterministic (context
	// cancelled, or the reference tripped an external budget): stop
	// everyone, then salvage any verdict that was actually reached rather
	// than throwing it away.
	drain := func(pending int) PortfolioResult {
		teardown()
		for ; pending > 0; pending-- {
			out := <-results
			switch {
			case out.status == Unsat:
				noteFirst(out.idx)
				res.Status, res.Winner = Unsat, 0
				return res
			case out.status == Sat && out.idx == 0:
				noteFirst(0)
				res.Status, res.Winner, res.Model = Sat, 0, out.model
				return res
			case out.status == Sat:
				if !satProved && solvers[out.idx].VerifyModel(out.model, assumps) {
					noteFirst(out.idx)
					satProved, helperModel = true, out.model
				}
			}
		}
		if satProved {
			res.Status, res.Winner, res.Model = Sat, 0, helperModel
		}
		return res
	}

	for pending := n; pending > 0; {
		var out outcome
		// Prefer an already-delivered result over cancellation: when a
		// verdict and ctx.Done land together, a bare two-way select could
		// pick Done and discard the verdict.
		select {
		case out = <-results:
		default:
			select {
			case out = <-results:
			case <-ctx.Done():
				return drain(pending)
			}
		}
		pending--
		switch {
		case out.status == Unsat:
			noteFirst(out.idx)
			res.Status, res.Winner = Unsat, 0
			return res
		case out.status == Sat && out.idx == 0:
			noteFirst(0)
			res.Status, res.Winner, res.Model = Sat, 0, out.model
			return res
		case out.status == Sat:
			// A helper found a model. Verify it (the helper is done, so
			// reading its state is safe — the channel send ordered it),
			// then stop the remaining helpers: the verdict is proved, and
			// only the reference's canonical model is still wanted.
			if solvers[out.idx].VerifyModel(out.model, assumps) {
				noteFirst(out.idx)
				if !satProved {
					satProved, helperModel = true, out.model
				}
				for j := 1; j < n; j++ {
					if j != out.idx {
						solvers[j].Interrupt()
					}
				}
			}
		case out.idx == 0:
			// The reference stopped without a verdict — an external
			// interrupt or budget trip. Determinism is already off the
			// table; salvage what the helpers proved.
			if satProved {
				res.Status, res.Winner, res.Model = Sat, 0, helperModel
				return res
			}
			return drain(pending)
		}
	}
	// All workers returned Unknown (every definitive reference outcome
	// returns above, so reaching here means a fully exhausted race).
	if satProved {
		res.Status, res.Winner, res.Model = Sat, 0, helperModel
	}
	return res
}

// stopFlag is a tiny wrapper so the Solver zero-value works.
type stopFlag struct{ v atomic.Bool }

func (f *stopFlag) Store(b bool) { f.v.Store(b) }
func (f *stopFlag) Load() bool   { return f.v.Load() }
