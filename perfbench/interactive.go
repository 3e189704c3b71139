package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"netarch"
	"netarch/internal/kb"
)

// enumerateMax caps the design classes an interactive enumerate lists.
const enumerateMax = 8

// setupReps is how many times a pass sets up; setup_s is the median.
const setupReps = 7

// interactiveReloads is how many one-rule KB edits the interactive pass
// applies after its timed region; reload_p50_ms is their median.
const interactiveReloads = 5

// runInteractive is the architect's §2.3/§5.1 session on the seed
// catalog: warm-path synthesis, checks of the returned designs,
// explanations of infeasible asks, what-ifs one context atom apart,
// core-count optimization and bounded enumeration.
func runInteractive(cfg runConfig) (*phase, error) {
	specs := interactiveInputs(seedKB())
	p := newPhase()
	var eng *netarch.Engine
	var k *kb.KB
	for i := 0; i < setupReps; i++ {
		s, err := timedSetup(func() error {
			return setupLibrary(cfg.tr, &k, &eng, seedKB, func(*kb.KB) []netarch.Scenario { return seedShapes[:interactivePrewarm] })
		})
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, s)
	}

	ss := newSession(cfg.tr, 0)
	st := newStream(cfg.seed, interactiveMix, seedSkew, seedTop)
	before := eng.CacheStats()
	alloc0, err := heapAllocBytes()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for deadline := start.Add(cfg.seconds); time.Now().Before(deadline); {
		_, i := st.next()
		interactiveStep(eng, ss, i, specs[i])
	}
	p.wall = time.Since(start)
	alloc1, _ := heapAllocBytes()
	p.allocB = alloc1 - alloc0
	p.lat, p.tally, p.heapLive = ss.lat, ss.tally, ss.heap
	p.cacheDeltas(before, eng.CacheStats(), 0)
	p.solver(ss.work)
	p.noServe()

	if err := libraryReloadPass(p, cfg, eng, k, interactiveReloads); err != nil {
		return nil, err
	}
	runtime.KeepAlive(eng)
	return p, verifyLibrary(p, k, specs, ss.answers)
}

// setupLibrary builds the catalog, the engine and its prewarmed shapes,
// each in its own span.
func setupLibrary(tr *tracer, k **kb.KB, eng **netarch.Engine, build func() *kb.KB, prewarm func(*kb.KB) []netarch.Scenario) error {
	if err := spanned(tr, "catalog.build", func() error { *k = build(); return nil }); err != nil {
		return err
	}
	if err := spanned(tr, "core.new", func() (err error) { *eng, err = netarch.NewEngine(*k); return }); err != nil {
		return err
	}
	if prewarm == nil {
		return nil
	}
	for _, sc := range prewarm(*k) {
		if err := spanned(tr, "core.prewarm", func() error { return (*eng).Prewarm(sc) }); err != nil {
			return err
		}
	}
	return nil
}

// interactiveStep asks one question, plus the follow-up an architect
// asks next: a check of the returned design, or an explanation.
func interactiveStep(eng *netarch.Engine, ss *session, i int, q querySpec) {
	sc := q.Scenario
	switch q.Op {
	case "synth":
		var rep *netarch.Report
		ss.query(func(root int) outcome {
			var err error
			ss.call("core.synth", root, func() { rep, err = eng.Synthesize(sc) })
			if err != nil {
				return classifyErr(err)
			}
			ss.work.add(rep.Spent)
			ss.answers = append(ss.answers, answer{Spec: i, Op: "synth", Feasible: rep.Verdict == netarch.Feasible, Design: rep.Design})
			return outcomeOK
		})
		if rep == nil {
			return
		}
		if rep.Verdict == netarch.Feasible {
			ss.query(func(root int) outcome {
				var chk *netarch.Report
				var err error
				ss.call("core.check", root, func() { chk, err = eng.Check(*rep.Design, sc) })
				if err != nil {
					return classifyErr(err)
				}
				ss.work.add(chk.Spent)
				ss.answers = append(ss.answers, answer{Spec: i, Op: "check", Feasible: chk.Verdict == netarch.Feasible})
				return outcomeOK
			})
			return
		}
		ss.query(func(root int) outcome {
			var ex *netarch.Explanation
			var err error
			ss.call("core.explain", root, func() { ex, err = eng.Explain(sc) })
			if err != nil {
				return classifyErr(err)
			}
			if ex != nil && ex.Approximate {
				return outcomeBudget
			}
			ss.answers = append(ss.answers, answer{Spec: i, Op: "explain", Feasible: ex == nil,
				Explained: ex != nil && len(ex.Conflicts) > 0})
			return outcomeOK
		})
	case "whatif":
		ss.query(func(root int) outcome {
			var a, b *netarch.Report
			var err error
			ss.call("core.synth", root, func() { a, err = eng.Synthesize(sc) })
			if err != nil {
				return classifyErr(err)
			}
			ss.call("core.synth", root, func() { b, err = eng.Synthesize(flipped(sc, q.Flip)) })
			if err != nil {
				return classifyErr(err)
			}
			ss.work.add(a.Spent)
			ss.work.add(b.Spent)
			ss.answers = append(ss.answers, answer{Spec: i, Op: "whatif",
				Feasible: a.Verdict == netarch.Feasible, Design: a.Design,
				FlipFeasible: b.Verdict == netarch.Feasible, FlipDesign: b.Design})
			return outcomeOK
		})
	case "optimize":
		ss.query(func(root int) outcome {
			obj, err := netarch.ParseObjective(q.Objective)
			if err != nil {
				return outcomeError
			}
			var res *netarch.OptimizeResult
			ss.call("maxsat.optimize", root, func() { res, err = eng.Optimize(sc, []netarch.Objective{obj}) })
			if err != nil {
				return classifyErr(err)
			}
			if res.Approximate {
				return outcomeBudget
			}
			ss.work.add(res.Spent)
			ss.work.addOptimize(res.Spent.Conflicts, res.ObjectiveValues, res.LowerBounds)
			ss.answers = append(ss.answers, answer{Spec: i, Op: "optimize",
				Feasible: res.Verdict == netarch.Feasible, Design: res.Design, Values: res.ObjectiveValues})
			return outcomeOK
		})
	case "enumerate":
		ss.query(func(root int) outcome {
			var res *netarch.EnumerateResult
			var err error
			ss.call("core.enumerate", root, func() {
				res, err = eng.EnumerateCtx(context.Background(), sc, enumerateMax, netarch.Budget{})
			})
			if err != nil {
				return classifyErr(err)
			}
			if res.Exhausted != nil {
				return outcomeBudget
			}
			ss.answers = append(ss.answers, answer{Spec: i, Op: "enumerate",
				Feasible: len(res.Designs) > 0, Designs: res.Designs, Truncated: res.Truncated})
			return outcomeOK
		})
	}
}

// libraryReloadPass applies one-rule KB edits through Engine.UpdateKB
// after the timed region, alternately adding a rule and removing it
// again, with the query phase's bases cached.
func libraryReloadPass(p *phase, cfg runConfig, eng *netarch.Engine, k *kb.KB, n int) error {
	rules := edits(cfg.seed, n)
	var u updates
	for i := 0; i < n; i++ {
		next := k
		if i%2 == 0 {
			next = withRule(k, rules[i])
		}
		id := cfg.tr.begin("core.update", -1, 0)
		t0 := time.Now()
		up, err := eng.UpdateKB(next)
		d := time.Since(t0)
		cfg.tr.end(id)
		if err != nil {
			return fmt.Errorf("UpdateKB: %w", err)
		}
		p.reloadMS = append(p.reloadMS, float64(d.Nanoseconds())/1e6)
		u.add(up.ShardsReused, up.ShardsConverted, up.BasesUpdated)
	}
	p.update(u)
	return nil
}

// verifyLibrary checks a seed-scale library pass's answers against the
// reference engine and the evaluator, outside every timed region.
func verifyLibrary(p *phase, k *kb.KB, specs []querySpec, answers []answer) error {
	ref, err := referenceEngine(k)
	if err != nil {
		return err
	}
	ev, err := newEvaluator(k)
	if err != nil {
		return err
	}
	used := make([]bool, len(specs))
	for _, a := range answers {
		used[a.Spec] = true
	}
	refs := reference(ref, specs, used, runtime.GOMAXPROCS(0))
	p.markWrong(checkAnswers(ev, specs, refs, answers))
	return nil
}
