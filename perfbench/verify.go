package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"netarch"
	"netarch/internal/kb"
)

// Answer checking. Every feasible design goes through a plain evaluator
// that reads the knowledge base directly (no solver, no encoder), and
// through Engine.DatalogCheck, the rule-based backend that does not use
// SAT. Verdicts and optimum values are compared with a reference answer.

// exclusiveRoles are the roles of which a fleet deploys at most one
// system.
var exclusiveRoles = []kb.Role{
	kb.RoleNetworkStack, kb.RoleCongestionControl, kb.RoleVirtualSwitch, kb.RoleLoadBalancer,
}

// evaluator checks designs by plain arithmetic over the KB.
type evaluator struct {
	k   *kb.KB
	hw  map[string]*kb.Hardware
	sys map[string]*kb.System
	// dl answers DatalogCheck; it is never used for a timed query.
	dl *netarch.Engine
}

func newEvaluator(k *kb.KB) (*evaluator, error) {
	dl, err := netarch.NewEngine(k)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{k: k, hw: map[string]*kb.Hardware{}, sys: map[string]*kb.System{}, dl: dl}
	for i := range k.Hardware {
		ev.hw[k.Hardware[i].Name] = &k.Hardware[i]
	}
	for i := range k.Systems {
		ev.sys[k.Systems[i].Name] = &k.Systems[i]
	}
	return ev, nil
}

// check returns every problem it finds with a design offered as an
// answer to sc; none means the design is valid.
func (ev *evaluator) check(d *netarch.Design, sc netarch.Scenario) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if d == nil {
		return []string{"feasible answer without a design"}
	}

	// Systems: known, pins honoured, exclusive roles filled at most once.
	deployed := map[string]bool{}
	perRole := map[kb.Role]int{}
	for _, name := range d.Systems {
		s := ev.sys[name]
		if s == nil {
			fail("unknown system %q", name)
			continue
		}
		deployed[name] = true
		perRole[s.Role]++
	}
	for _, r := range exclusiveRoles {
		if perRole[r] > 1 {
			fail("%d systems deployed in exclusive role %s", perRole[r], r)
		}
	}
	if len(ev.k.SystemsByRole(kb.RoleNetworkStack)) > 0 && perRole[kb.RoleNetworkStack] == 0 {
		fail("no network stack deployed")
	}
	for _, s := range sc.PinnedSystems {
		if !deployed[s] {
			fail("pinned system %q not deployed", s)
		}
	}
	for _, s := range sc.ForbiddenSystems {
		if deployed[s] {
			fail("forbidden system %q deployed", s)
		}
	}
	for a, v := range sc.Context {
		if got, ok := d.Context[a]; ok && got != v {
			fail("context %s=%v contradicts the pinned %v", a, got, v)
		}
	}

	// Hardware: one known SKU per kind, within pins and shortlists.
	chosen := map[kb.HardwareKind]*kb.Hardware{}
	for _, kind := range []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer} {
		name, ok := d.Hardware[kind]
		if !ok {
			fail("no %s selected", kind)
			continue
		}
		h := ev.hw[name]
		if h == nil || h.Kind != kind {
			fail("%s %q is not in the catalog", kind, name)
			continue
		}
		chosen[kind] = h
		if pin, ok := sc.PinnedHardware[kind]; ok && pin != name {
			fail("%s %q ignores the pin %q", kind, name, pin)
		}
		if allowed, ok := sc.AllowedHardware[kind]; ok && !contains(allowed, name) {
			fail("%s %q is outside the allowed list", kind, name)
		}
	}
	if len(chosen) < 3 {
		return bad
	}

	// Arithmetic on the chosen SKUs.
	ns, nsw := int64(sc.NumServers), int64(sc.NumSwitches)
	if ns <= 0 {
		ns = 48
	}
	if nsw <= 0 {
		nsw = 4
	}
	wls, err := ev.workloads(sc)
	if err != nil {
		return append(bad, err.Error())
	}
	var wlCores, wlMem, kflows, peakBW int64
	cxl := sc.Context["cxl_pooling"]
	for _, w := range wls {
		wlCores += w.PeakCores
		wlMem += w.PeakMemoryGB
		kflows += w.KFlows
		peakBW = max(peakBW, w.PeakBandwidthGbps)
		cxl = cxl || contains(w.Properties, "cxl_pooling")
	}
	coresUsed := wlCores
	for name := range deployed {
		s := ev.sys[name]
		coresUsed += s.Resources[kb.ResCores]*ns + s.CoresPerKFlows*kflows
	}
	server, nic, sw := chosen[kb.KindServer], chosen[kb.KindNIC], chosen[kb.KindSwitch]
	coresTotal := server.Q(kb.ResCores) * ns
	if coresUsed > coresTotal {
		fail("cores: %d used > %d provided", coresUsed, coresTotal)
	}
	mem := server.Q(kb.ResMemoryGB) * ns
	if cxl && server.HasCap(kb.CapCXL) {
		mem += mem / 2
	}
	if wlMem > 0 && wlMem > mem {
		fail("memory: workloads need %d GB, fleet has %d", wlMem, mem)
	}
	if nic.Q(kb.ResBandwidthGbps) < peakBW {
		fail("NIC carries %d Gbit/s, workloads peak at %d", nic.Q(kb.ResBandwidthGbps), peakBW)
	}
	cost := (server.CostUSD+nic.CostUSD)*ns + sw.CostUSD*nsw
	if sc.MaxCostUSD > 0 && cost > sc.MaxCostUSD {
		fail("cost $%d over the cap $%d", cost, sc.MaxCostUSD)
	}
	power := (server.Q(kb.ResPowerW)+nic.Q(kb.ResPowerW))*ns + sw.Q(kb.ResPowerW)*nsw
	want := map[string]int64{
		"cores_used": coresUsed, "cores_total": coresTotal, "cost_usd": cost,
		"power_w": power, "switch_ports": sw.Q(kb.ResPortCount) * nsw,
	}
	for m, v := range want {
		if got, ok := d.Metrics[m]; ok && got != v {
			fail("metric %s reads %d, the KB gives %d", m, got, v)
		}
	}

	// Structured constraints, through the rule-based backend. The
	// design's own context assignment completes the scenario's pins. A
	// design from the service carries no context assignment; then the
	// context and need verdicts, which depend on it, are left out.
	dsc := sc
	if d.Context != nil {
		dsc.Context = d.Context
	}
	viols, err := ev.dl.DatalogCheck(*d, dsc)
	if err != nil {
		return append(bad, "datalog: "+err.Error())
	}
	for _, v := range viols {
		if d.Context == nil && (v.Kind == "context" || v.Kind == "need") {
			continue
		}
		fail("datalog: %s", v)
	}
	return bad
}

func (ev *evaluator) workloads(sc netarch.Scenario) ([]*kb.Workload, error) {
	if len(sc.Workloads) == 0 {
		out := make([]*kb.Workload, len(ev.k.Workloads))
		for i := range ev.k.Workloads {
			out[i] = &ev.k.Workloads[i]
		}
		return out, nil
	}
	var out []*kb.Workload
	for _, name := range sc.Workloads {
		w := ev.k.WorkloadByName(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

func contains[T comparable](xs []T, x T) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// designKey identifies a design by its systems and hardware.
func designKey(d *netarch.Design) string {
	if d == nil {
		return "<nil>"
	}
	kinds := make([]string, 0, len(d.Hardware))
	for k, v := range d.Hardware {
		kinds = append(kinds, string(k)+"="+v)
	}
	sort.Strings(kinds)
	return strings.Join(d.Systems, ",") + "|" + strings.Join(kinds, ",")
}

// refAnswer is the reference answer to one spec.
type refAnswer struct {
	Feasible bool
	// FlipFeasible is the what-if's second verdict.
	FlipFeasible bool
	// Values is the optimum (optimize), Designs the class keys
	// (enumerate).
	Values    []int64
	Designs   []string
	Truncated bool
	Err       error
}

// referenceEngine is the independent arm of the comparison: unsliced,
// uncached and single-worker, so no answer it gives passes through the
// cache, the slicer or the parallel enumerator.
func referenceEngine(k *kb.KB) (*netarch.Engine, error) {
	eng, err := netarch.NewEngine(k)
	if err != nil {
		return nil, err
	}
	eng.SetCacheCapacity(0)
	eng.SetWorkers(1)
	eng.SetSliceMode(netarch.SliceOff)
	return eng, nil
}

// flipped is the what-if's second scenario: sc with one context atom
// flipped (or pinned true when sc leaves it free).
func flipped(sc netarch.Scenario, atom string) netarch.Scenario {
	ctx := make(map[string]bool, len(sc.Context)+1)
	for a, v := range sc.Context {
		ctx[a] = v
	}
	ctx[atom] = !sc.Context[atom]
	sc.Context = ctx
	return sc
}

// reference answers the given specs on the reference engine, over
// nproc goroutines. It runs outside every timed region.
func reference(ref *netarch.Engine, specs []querySpec, used []bool, workers int) []refAnswer {
	out := make([]refAnswer, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = referenceOne(ref, specs[i])
			}
		}()
	}
	for i := range specs {
		if used[i] {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	return out
}

func referenceOne(ref *netarch.Engine, q querySpec) refAnswer {
	var a refAnswer
	switch q.Op {
	case "synth", "explain":
		rep, err := ref.Synthesize(q.Scenario)
		if err != nil {
			return refAnswer{Err: err}
		}
		a.Feasible = rep.Verdict == netarch.Feasible
	case "whatif":
		rep, err := ref.Synthesize(q.Scenario)
		if err != nil {
			return refAnswer{Err: err}
		}
		rep2, err := ref.Synthesize(flipped(q.Scenario, q.Flip))
		if err != nil {
			return refAnswer{Err: err}
		}
		a.Feasible, a.FlipFeasible = rep.Verdict == netarch.Feasible, rep2.Verdict == netarch.Feasible
	case "optimize":
		obj, err := netarch.ParseObjective(q.Objective)
		if err != nil {
			return refAnswer{Err: err}
		}
		res, err := ref.Optimize(q.Scenario, []netarch.Objective{obj})
		if err != nil {
			return refAnswer{Err: err}
		}
		a.Feasible, a.Values = res.Verdict == netarch.Feasible, res.ObjectiveValues
	case "enumerate":
		res, err := ref.EnumerateCtx(context.Background(), q.Scenario, enumerateMax, netarch.Budget{})
		if err != nil {
			return refAnswer{Err: err}
		}
		a.Feasible, a.Truncated = len(res.Designs) > 0, res.Truncated
		for _, d := range res.Designs {
			a.Designs = append(a.Designs, designKey(d))
		}
	default:
		a.Err = fmt.Errorf("unknown op %q", q.Op)
	}
	return a
}

// answer is what the program answered to one spec, as recorded during
// a timed run.
type answer struct {
	Spec int
	Op   string
	// Feasible and Design are the (first) synth verdict and witness;
	// FlipFeasible and FlipDesign the what-if's second.
	Feasible     bool
	Design       *netarch.Design
	FlipFeasible bool
	FlipDesign   *netarch.Design
	// Explained reports a non-empty, fully minimized explanation.
	Explained bool
	Values    []int64
	Designs   []*netarch.Design
	Truncated bool
}

// checkAnswers compares recorded answers with the reference and checks
// every design. It returns how many answers are wrong, with the first
// few problems for the report.
func checkAnswers(ev *evaluator, specs []querySpec, refs []refAnswer, answers []answer) (int, []string) {
	wrong := 0
	var notes []string
	seen := map[string][]string{}
	validate := func(d *netarch.Design, sc netarch.Scenario, spec int) []string {
		key := fmt.Sprint(spec, "/", designKey(d), "/", sc.Context)
		if probs, ok := seen[key]; ok {
			return probs
		}
		probs := ev.check(d, sc)
		seen[key] = probs
		return probs
	}
	for _, a := range answers {
		q, ref := specs[a.Spec], refs[a.Spec]
		var probs []string
		if ref.Err != nil {
			probs = append(probs, "reference: "+ref.Err.Error())
		}
		if a.Feasible != ref.Feasible {
			probs = append(probs, fmt.Sprintf("verdict feasible=%v, reference says %v", a.Feasible, ref.Feasible))
		}
		switch a.Op {
		case "synth", "optimize":
			if a.Feasible {
				probs = append(probs, validate(a.Design, q.Scenario, a.Spec)...)
			}
		case "explain":
			if !a.Feasible && !a.Explained {
				probs = append(probs, "infeasible without a minimal explanation")
			}
		case "whatif":
			if a.FlipFeasible != ref.FlipFeasible {
				probs = append(probs, fmt.Sprintf("what-if verdict feasible=%v, reference says %v", a.FlipFeasible, ref.FlipFeasible))
			}
			if a.Feasible {
				probs = append(probs, validate(a.Design, q.Scenario, a.Spec)...)
			}
			if a.FlipFeasible {
				probs = append(probs, validate(a.FlipDesign, flipped(q.Scenario, q.Flip), a.Spec)...)
			}
		case "enumerate":
			if a.Truncated != ref.Truncated || len(a.Designs) != len(ref.Designs) {
				probs = append(probs, fmt.Sprintf("enumerate: %d classes (truncated %v), reference %d (%v)",
					len(a.Designs), a.Truncated, len(ref.Designs), ref.Truncated))
			}
			for i, d := range a.Designs {
				if i < len(ref.Designs) && designKey(d) != ref.Designs[i] {
					probs = append(probs, fmt.Sprintf("enumerate: class %d differs from the reference", i))
				}
				probs = append(probs, validate(d, q.Scenario, a.Spec)...)
			}
		}
		if a.Op == "optimize" && fmt.Sprint(a.Values) != fmt.Sprint(ref.Values) {
			probs = append(probs, fmt.Sprintf("optimum %v, reference %v", a.Values, ref.Values))
		}
		if len(probs) > 0 {
			wrong++
			if len(notes) < 5 {
				notes = append(notes, fmt.Sprintf("spec %d (%s): %s", a.Spec, a.Op, strings.Join(probs, "; ")))
			}
		}
	}
	return wrong, notes
}
