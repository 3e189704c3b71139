package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
	"netarch/internal/sat"
)

// Differential harness for relevance-filtered compilation (make
// scale-diff): every query answered from a cone-of-influence slice must
// match the answer from the full encoding. The suite adapts the §5.1
// queries to a scaled catalog, adds seeded randomized scenarios (some
// deliberately infeasible), and compares across worker counts on both
// cold and warm caches:
//
//   - verdicts must match exactly;
//   - lexicographic optima (ObjectiveValues) must match exactly;
//   - Pareto frontiers must match as value-vector sets, with witnesses
//     cross-validated on the opposite engine;
//   - feasible designs are cross-validated: the full engine must Check
//     the sliced design as Feasible and vice versa (designs themselves
//     may differ — both encodings admit many optima);
//   - explanations match exactly, or the sliced explanation is proven a
//     valid unsatisfiable core on the full encoding by assumption
//     solving over exactly its named selectors.
//
// Full-engine Enumerate is deliberately NOT compared: out-of-cone
// systems that no rule, order, or requirement observes (the catalog's
// plain "udp") form extra equivalence classes in the full space that the
// slice correctly omits.

const scaleDiffSKUs = 5000

// scaleDiffScenarios is the §5.1 suite adapted to the scaled catalog,
// plus an overconstrained query that must be infeasible. Q1's grown
// scenario freezes the server SKU at the full engine's cost optimum,
// exactly as the experiment does — using the full engine keeps the
// reference trajectory slice-free.
func scaleDiffScenarios(t *testing.T, off *Engine) (names []string, scs map[string]Scenario) {
	t.Helper()
	base, err := off.Optimize(Scenario{Workloads: []string{"inference_app"}},
		[]Objective{{Kind: MinimizeCost}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Verdict != Feasible {
		t.Fatalf("Q1 baseline infeasible on the scaled catalog: %v", base.Explanation)
	}
	frozenServer := base.Design.Hardware[kb.KindServer]

	scs = map[string]Scenario{
		"q1-baseline": {Workloads: []string{"inference_app"}},
		"q1-grown": {
			Workloads:      []string{"inference_app", "batch_analytics", "storage_backend"},
			PinnedHardware: map[kb.HardwareKind]string{kb.KindServer: frozenServer},
			Context:        map[string]bool{"pfc_enabled": true},
			NumServers:     128,
		},
		"q2-monitoring": {
			Workloads: []string{"inference_app"},
			Require:   []kb.Property{"flow_telemetry", "detect_queue_length"},
		},
		"q2-sonata-pinned": {
			Workloads:     []string{"inference_app"},
			Require:       []kb.Property{"flow_telemetry", "detect_queue_length"},
			PinnedSystems: []string{"sonata"},
		},
		"q3-cxl-off": {
			Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": false},
		},
		"q3-cxl-on": {
			Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": true},
		},
		"overconstrained": {
			Workloads: []string{"inference_app"},
			Require:   []kb.Property{"flow_telemetry", "perpetual_motion"},
		},
	}
	for n := range scs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, scs
}

// addRandomScenarios appends seeded randomized scenarios: random
// workload subsets, requirement draws from the catalog's real property
// vocabulary (occasionally an unprovidable one), context bindings over
// the rule-mentioned atoms, and server counts. The fixed seed keeps the
// suite reproducible.
func addRandomScenarios(k *kb.KB, names []string, scs map[string]Scenario) []string {
	rng := rand.New(rand.NewSource(20240508))

	var props []kb.Property
	seen := map[kb.Property]bool{}
	for i := range k.Systems {
		for _, p := range k.Systems[i].Solves {
			if !seen[p] {
				seen[p] = true
				props = append(props, p)
			}
		}
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	var ctxAtoms []string
	seenCtx := map[string]bool{}
	for _, r := range k.Rules {
		for _, a := range r.Expr.Atoms(nil) {
			if name, ok := atomCtx(a); ok && !seenCtx[name] {
				seenCtx[name] = true
				ctxAtoms = append(ctxAtoms, name)
			}
		}
	}
	sort.Strings(ctxAtoms)
	workloads := make([]string, len(k.Workloads))
	for i := range k.Workloads {
		workloads[i] = k.Workloads[i].Name
	}
	sort.Strings(workloads)

	for i := 0; i < 6; i++ {
		sc := Scenario{NumServers: []int{0, 16, 64, 128}[rng.Intn(4)]}
		perm := rng.Perm(len(workloads))
		for _, wi := range perm[:1+rng.Intn(2)] {
			sc.Workloads = append(sc.Workloads, workloads[wi])
		}
		sort.Strings(sc.Workloads)
		for _, p := range props {
			if rng.Intn(len(props)) == 0 {
				sc.Require = append(sc.Require, p)
			}
		}
		if i%3 == 2 {
			// Every third scenario demands the unprovidable, exercising
			// the explanation path on a non-trivial cone.
			sc.Require = append(sc.Require, "perpetual_motion")
		}
		if rng.Intn(2) == 0 {
			sc.Context = map[string]bool{}
			for _, a := range ctxAtoms {
				if rng.Intn(3) == 0 {
					sc.Context[a] = rng.Intn(2) == 0
				}
			}
			if len(sc.Context) == 0 {
				sc.Context = nil
			}
		}
		name := fmt.Sprintf("rand-%d", i)
		scs[name] = sc
		names = append(names, name)
	}
	return names
}

// diffEngines builds the sliced/full engine pair over one shared KB.
func diffEngines(t *testing.T, k *kb.KB) (on, off *Engine) {
	t.Helper()
	var err error
	if on, err = New(k); err != nil {
		t.Fatal(err)
	}
	on.SetSliceMode(SliceOn)
	if off, err = New(k); err != nil {
		t.Fatal(err)
	}
	off.SetSliceMode(SliceOff)
	return on, off
}

// conflictNames extracts the sorted selector names of an explanation.
func conflictNames(ex *Explanation) []string {
	if ex == nil {
		return nil
	}
	out := make([]string, len(ex.Conflicts))
	for i, c := range ex.Conflicts {
		out[i] = c.Name
	}
	sort.Strings(out)
	return out
}

// validateCoreOn proves an explanation is a genuine unsatisfiable core
// of eng's encoding for sc: specialize the scenario, assume exactly the
// named selectors, and demand Unsat. This is the fallback when sliced
// and full minimization land on different (both minimal) cores.
func validateCoreOn(t *testing.T, eng *Engine, sc Scenario, ex *Explanation, label string) {
	t.Helper()
	c, err := eng.instance(&sc)
	if err != nil {
		t.Errorf("%s: core validation compile failed: %v", label, err)
		return
	}
	assume := make([]sat.Lit, 0, len(ex.Conflicts))
	for _, ci := range ex.Conflicts {
		lit, ok := c.selectorLit(ci.Name)
		if !ok {
			t.Errorf("%s: core names selector %q absent from the full encoding", label, ci.Name)
			return
		}
		assume = append(assume, lit)
	}
	if st := c.solver.SolveAssuming(assume); st != sat.Unsat {
		t.Errorf("%s: claimed core %v is satisfiable on the full encoding (status %v)",
			label, conflictNames(ex), st)
	}
}

// crossCheckDesign validates one engine's design on the other: a
// compliant design under the sliced encoding must be compliant under
// the full one, and vice versa.
func crossCheckDesign(t *testing.T, other *Engine, d *Design, sc Scenario, label string) {
	t.Helper()
	rep, err := other.Check(*d, sc)
	if err != nil {
		t.Errorf("%s: cross-check errored: %v", label, err)
		return
	}
	if rep.Verdict != Feasible {
		t.Errorf("%s: design rejected by the opposite engine: %v\n%v",
			label, rep.Verdict, rep.Explanation)
	}
}

// compareSynthesize runs one scenario through both engines and applies
// the verdict / design / explanation contracts. deep additionally
// cross-validates designs and explanations (bounded work, so the
// per-worker sweeps stay fast while one pass checks everything).
func compareSynthesize(t *testing.T, on, off *Engine, name string, sc Scenario, deep bool) {
	t.Helper()
	got, err := on.Synthesize(sc)
	if err != nil {
		t.Fatalf("%s: sliced: %v", name, err)
	}
	want, err := off.Synthesize(sc)
	if err != nil {
		t.Fatalf("%s: full: %v", name, err)
	}
	if got.Verdict != want.Verdict {
		t.Fatalf("%s: verdict diverges: sliced=%v full=%v (sliced expl %v, full expl %v)",
			name, got.Verdict, want.Verdict, got.Explanation, want.Explanation)
	}
	if !deep {
		return
	}
	switch got.Verdict {
	case Feasible:
		crossCheckDesign(t, off, got.Design, sc, name+": sliced design on full")
		crossCheckDesign(t, on, want.Design, sc, name+": full design on sliced")
	case Infeasible:
		gotN, wantN := conflictNames(got.Explanation), conflictNames(want.Explanation)
		if len(gotN) == 0 || len(wantN) == 0 {
			t.Errorf("%s: infeasible without explanation (sliced %v, full %v)", name, gotN, wantN)
			return
		}
		if fmt.Sprint(gotN) != fmt.Sprint(wantN) {
			// Different minimal cores are legitimate; the sliced one must
			// still be a real core of the FULL encoding.
			validateCoreOn(t, off, sc, got.Explanation, name+": sliced core on full")
		}
	}
}

// compareOptimize demands bit-exact lexicographic optima.
func compareOptimize(t *testing.T, on, off *Engine, name string, sc Scenario, objs []Objective) {
	t.Helper()
	got, err := on.Optimize(sc, objs)
	if err != nil {
		t.Fatalf("%s: sliced optimize: %v", name, err)
	}
	want, err := off.Optimize(sc, objs)
	if err != nil {
		t.Fatalf("%s: full optimize: %v", name, err)
	}
	if got.Verdict != want.Verdict {
		t.Fatalf("%s: optimize verdict diverges: sliced=%v full=%v", name, got.Verdict, want.Verdict)
	}
	if got.Verdict != Feasible {
		return
	}
	if fmt.Sprint(got.ObjectiveValues) != fmt.Sprint(want.ObjectiveValues) {
		t.Errorf("%s: optima diverge: sliced=%v full=%v",
			name, got.ObjectiveValues, want.ObjectiveValues)
	}
	crossCheckDesign(t, off, got.Design, sc, name+": sliced optimum on full")
}

// comparePareto demands identical frontiers as value-vector sets and
// cross-validates the sliced witnesses on the full engine.
func comparePareto(t *testing.T, on, off *Engine, name string, sc Scenario, objs []Objective) {
	t.Helper()
	got, err := paretoOf(on, sc, objs, StrategyBinary)
	if err != nil {
		t.Fatalf("%s: sliced pareto: %v", name, err)
	}
	want, err := paretoOf(off, sc, objs, StrategyBinary)
	if err != nil {
		t.Fatalf("%s: full pareto: %v", name, err)
	}
	if got.Complete != want.Complete {
		t.Fatalf("%s: completeness diverges: sliced=%v full=%v", name, got.Complete, want.Complete)
	}
	vecs := func(r *ParetoResult) []string {
		out := make([]string, len(r.Points))
		for i, p := range r.Points {
			out[i] = fmt.Sprint(p.Values)
		}
		return out // Points are sorted by vector; no extra sort needed.
	}
	gv, wv := vecs(got), vecs(want)
	if fmt.Sprint(gv) != fmt.Sprint(wv) {
		t.Fatalf("%s: frontiers diverge:\n  sliced %v\n  full   %v", name, gv, wv)
	}
	for i, p := range got.Points {
		if i >= 3 {
			break // witnesses beyond the first few add no new coverage
		}
		crossCheckDesign(t, off, p.Design, sc,
			fmt.Sprintf("%s: sliced pareto witness %v on full", name, p.Values))
	}
}

// TestScaleDifferential is the soundness gate for relevance-filtered
// compilation (make scale-diff).
func TestScaleDifferential(t *testing.T) {
	k := catalog.ScaledCatalog(scaleDiffSKUs)
	on, off := diffEngines(t, k)

	names, scs := scaleDiffScenarios(t, off)
	names = addRandomScenarios(k, names, scs)

	// Cold pass, sequential: both caches empty, every scenario compiles
	// fresh; deep checks cross-validate designs and explanations.
	on.SetWorkers(1)
	off.SetWorkers(1)
	for _, n := range names {
		compareSynthesize(t, on, off, "cold/"+n, scs[n], true)
	}

	// Optima and frontiers ride the now-warm bases.
	objSuites := map[string][]Objective{
		"cost":       {{Kind: MinimizeCost}},
		"power-cost": {{Kind: MinimizePower}, {Kind: MinimizeCost}},
		"systems":    {{Kind: MinimizeSystems}},
	}
	for _, n := range []string{"q1-baseline", "q1-grown", "q3-cxl-on"} {
		for suite, objs := range objSuites {
			compareOptimize(t, on, off, n+"/"+suite, scs[n], objs)
		}
	}
	comparePareto(t, on, off, "q1-baseline/pareto", scs["q1-baseline"],
		[]Objective{{Kind: MinimizeCost}, {Kind: MinimizePower}})
	comparePareto(t, on, off, "q3-cxl-on/pareto", scs["q3-cxl-on"],
		[]Objective{{Kind: MinimizeCost}, {Kind: MinimizeSystems}})

	// Warm passes across worker counts: answers must not depend on the
	// parallel split.
	for _, w := range []int{2, 8} {
		on.SetWorkers(w)
		off.SetWorkers(w)
		for _, n := range names {
			compareSynthesize(t, on, off, fmt.Sprintf("warm/w%d/%s", w, n), scs[n], false)
		}
	}

	// Cold re-check at the widest worker count: invalidate both caches
	// and replay a representative subset (one feasible multi-workload
	// query, one infeasible one) so cold compilation under parallel
	// solving is covered without recompiling the full suite.
	on.InvalidateCache()
	off.InvalidateCache()
	for _, n := range []string{"q3-cxl-on", "overconstrained"} {
		compareSynthesize(t, on, off, "cold/w8/"+n, scs[n], true)
	}

	// The sliced engine must actually have sliced: this harness proving
	// agreement is vacuous if auto/on fell through to full compiles.
	if st := on.CacheStats(); st.SliceComputed == 0 || st.SliceSKUsKept >= st.SliceSKUsIn {
		t.Fatalf("sliced engine did not slice: %+v", st)
	}
}
