package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"sort"
	"testing"

	"netarch"
	"netarch/internal/core"
)

// draws records a stream's first n requests.
func draws(seed int64, mix []opShare, n int) []string {
	st := newStream(seed, mix, seedSkew, seedTop)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		op, spec := st.next()
		out = append(out, fmt.Sprint(op, spec, st.chance(churnCheckShare)))
	}
	return out
}

func TestInputsAreSeeded(t *testing.T) {
	k := seedKB()
	for _, mix := range [][]opShare{interactiveMix, serveMix, churnMix} {
		if a, b := draws(7, mix, 500), draws(7, mix, 500); !reflect.DeepEqual(a, b) {
			t.Fatal("the same seed drew different query sequences")
		}
		if a, b := draws(7, mix, 500), draws(8, mix, 500); reflect.DeepEqual(a, b) {
			t.Fatal("different seeds drew the same query sequence")
		}
	}
	if a, b := edits(7, serveEdits), edits(7, serveEdits); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different KB edits")
	}
	if a, b := edits(7, serveEdits), edits(8, serveEdits); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds generated the same KB edits")
	}
	// The populations are fixed: every seed draws from the same ones.
	if !reflect.DeepEqual(interactiveInputs(k), interactiveInputs(seedKB())) ||
		!reflect.DeepEqual(serveInputs(k), serveInputs(seedKB())) {
		t.Fatal("question populations are not reproducible")
	}
	for mi, mix := range [][]opShare{interactiveMix, serveMix} {
		pop := [][]querySpec{interactiveInputs(k), serveInputs(k)}[mi]
		i := 0
		for _, m := range mix {
			for j := 0; j < m.specs; j, i = j+1, i+1 {
				if pop[i].Op != m.op {
					t.Fatalf("spec %d is a %s, the mix lays out a %s", i, pop[i].Op, m.op)
				}
			}
		}
		if i != len(pop) {
			t.Fatalf("population has %d specs, mix lays out %d", len(pop), i)
		}
	}
}

// TestStreamDealsTheMix checks that a whole number of decks deals every
// op exactly its share and every spec its popularity.
func TestStreamDealsTheMix(t *testing.T) {
	mix := append([]opShare{{"noop", 2, 0}}, serveMix...)
	st := newStream(5, mix, seedSkew, seedTop)
	cycle, specCards := 0, map[int]int{}
	for _, m := range mix {
		cycle += m.perCycle
	}
	ops := map[string]int{}
	specs := map[int]int{}
	for i := 0; i < cycle*len(st.specs[1].cards)*len(st.specs[2].cards)*10; i++ {
		op, spec := st.next()
		ops[op]++
		specs[spec]++
	}
	for _, d := range st.specs {
		for _, c := range d.cards {
			specCards[c]++
		}
	}
	for g, m := range mix {
		if ops[m.op]*cycle != m.perCycle*sumCounts(ops) {
			t.Errorf("%s dealt %d of %d, want %d per %d", m.op, ops[m.op], sumCounts(ops), m.perCycle, cycle)
		}
		if m.specs > 0 && specCards[st.starts[g]] <= specCards[st.starts[g]+m.specs-1] {
			t.Errorf("%s: the first spec is not the most popular", m.op)
		}
	}
	if specs[-1] != ops["noop"] {
		t.Errorf("an op without specs was dealt a spec index")
	}
}

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestEditsAreOneRuleAndValid(t *testing.T) {
	k := seedKB()
	for _, r := range edits(3, serveEdits) {
		next := withRule(k, r)
		if err := next.Validate(); err != nil {
			t.Fatalf("edit %s: %v", r.Name, err)
		}
		if d := len(next.Rules) - len(k.Rules); d != 1 {
			t.Fatalf("edit %s adds %d rules", r.Name, d)
		}
	}
	if len(k.Rules) != len(seedKB().Rules) {
		t.Fatal("withRule modified its input KB")
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		idx     int
		pct     float64
		beyond  int
		comment string
	}{
		{n: 5, idx: 4, pct: 100, beyond: 0, comment: "too few samples: the maximum"},
		{n: 11, idx: 0, pct: 100.0 / 11, beyond: 10},
		{n: 100, idx: 89, pct: 90, beyond: 10},
		{n: 999, idx: 988, pct: 100 * 989.0 / 999, beyond: 10},
		{n: 1000, idx: 989, pct: 99, beyond: 10},
		{n: 5000, idx: 4949, pct: 99, beyond: 50},
	} {
		idx, pct := tailIndex(c.n)
		if idx != c.idx || pct != c.pct {
			t.Errorf("n=%d: tail index %d (p%.3f), want %d (p%.3f) %s", c.n, idx, pct, c.idx, c.pct, c.comment)
		}
		if got := c.n - 1 - idx; got != c.beyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, got, c.beyond)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	d := summarize(xs)
	if d.N != 200 || d.P50 != 100.5 || d.Tail != 190 || d.TailPct != 95 {
		t.Fatalf("summarize(1..200) = %+v, want p50 100.5, p95 190, n 200", d)
	}
}

func TestFailuresCountAgainstAttempted(t *testing.T) {
	var tl tally
	tl.add(classifyHTTP(http.StatusOK, false))
	tl.add(classifyHTTP(http.StatusTooManyRequests, false))
	tl.add(classifyHTTP(http.StatusServiceUnavailable, false))
	tl.add(classifyHTTP(http.StatusInternalServerError, false))
	tl.add(classifyHTTP(http.StatusBadRequest, false))
	tl.add(classifyHTTP(http.StatusGatewayTimeout, false))
	tl.add(classifyHTTP(http.StatusOK, true)) // degraded: a budget trip
	tl.add(classifyErr(&core.ErrResourceExhausted{Query: "synthesize", Cause: "deadline"}))
	tl.add(classifyErr(fmt.Errorf("wrapped: %w", &core.ErrResourceExhausted{Cause: "conflict budget"})))
	tl.add(classifyErr(errors.New("boom")))
	tl.add(classifyErr(nil))
	tl.add(classifyErr(nil))
	tl.wrong() // one ok answer later fails its check

	if tl.Attempted != 12 {
		t.Fatalf("attempted %d, want 12", tl.Attempted)
	}
	want := map[outcome]int{outcomeOK: 2, outcomeShed: 2, outcomeError: 3, outcomeBudget: 4, outcomeWrong: 1}
	for o, n := range want {
		if tl.ByOutcome[o] != n {
			t.Errorf("%s: %d, want %d", o, tl.ByOutcome[o], n)
		}
	}
	if tl.Failed() != 10 {
		t.Fatalf("failed %d, want 10", tl.Failed())
	}
	if r := tl.errorRate(); r.Base != 12 || r.Value() != 10.0/12 {
		t.Fatalf("error rate %v of %v, want 10/12", r.Value(), r.Base)
	}
	p := newPhase()
	p.tally = tl
	if p.correct() {
		t.Fatal("a pass with a wrong answer reports correct")
	}
}

func TestRatiosCarryTheirBase(t *testing.T) {
	p := newPhase()
	before := netarch.CacheStats{Hits: 10, Misses: 5, PoolHits: 1, SliceHits: 2, SliceComputed: 3, SliceSKUsIn: 100, SliceSKUsKept: 10}
	after := netarch.CacheStats{Hits: 40, Misses: 15, PoolHits: 1, SliceHits: 12, SliceComputed: 8, SliceSKUsIn: 600, SliceSKUsKept: 60, Size: 7}
	p.cacheDeltas(before, after, 0)
	for name, want := range map[string][2]float64{
		"core.cache.hit_ratio":      {30.0 / 40, 40},
		"core.cache.pool_hit_ratio": {0, 0},
		"core.slice.memo_hit_ratio": {10.0 / 15, 15},
		"core.slice.retention":      {50.0 / 500, 500},
	} {
		if got, base := p.layer[name], p.layer[name+".base"]; got != want[0] || base != want[1] {
			t.Errorf("%s = %v of %v, want %v of %v", name, got, base, want[0], want[1])
		}
	}
	if p.layer["core.slice.skus_kept_per_slice"] != 10 || p.layer["core.slice.slices_computed"] != 5 {
		t.Errorf("skus kept per slice %v of %v slices, want 10 of 5",
			p.layer["core.slice.skus_kept_per_slice"], p.layer["core.slice.slices_computed"])
	}
	// Every ratio in the per-layer set names its base.
	for name, unit := range perLayerUnits {
		if unit != "ratio" || name == "harness.error_rate" {
			continue
		}
		bases := []string{name + ".base"}
		switch name {
		case "core.update.shard_reuse_ratio":
			bases = []string{"core.update.shards"}
		case "maxsat.levels_certified":
			bases = []string{"maxsat.levels"}
		}
		for _, b := range bases {
			if _, ok := perLayerUnits[b]; !ok {
				t.Errorf("ratio %s has no base metric %s", name, b)
			}
		}
	}
	if _, ok := perLayerUnits["harness.attempted"]; !ok {
		t.Error("the error rate has no base metric")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "harness.query", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "core.synth", Start: 10, End: 40, Parent: 0, Req: 1},
		{Name: "core.synth", Start: 30, End: 60, Parent: 0, Req: 1}, // overlaps the first
		{Name: "maxsat.optimize", Start: 70, End: 90, Parent: 0, Req: 1},
		{Name: "catalog.build", Start: 0, End: 500, Parent: -1, Req: 0},
	}
	sum, err := reduceSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"harness": 30e-6, "core": 60e-6, "maxsat": 20e-6}
	for l, v := range want {
		if d := sum.SelfMS[l] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of %s = %v ms, want %v", l, sum.SelfMS[l], v)
		}
	}
	if _, ok := sum.SelfMS["catalog"]; ok {
		t.Error("set-up spans counted as query self time")
	}
	if len(sum.Durations["core.synth"]) != 2 {
		t.Errorf("core.synth durations %v", sum.Durations["core.synth"])
	}
	if _, err := reduceSpans([]span{{Name: "x", Start: 5, End: 0, Parent: -1}}); err == nil {
		t.Error("an unended span was accepted")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		var names []string
		for _, m := range listed {
			names = append(names, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
		if len(names) != len(units) {
			var prog []string
			for n := range units {
				prog = append(prog, n)
			}
			sort.Strings(prog)
			sort.Strings(names)
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nprogram        %v", kind, names, prog)
		}
	}
	check("end-to-end", bj.EndToEnd, endToEndUnits)
	check("per-layer", bj.PerLayer, perLayerUnits)
	var wls []string
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", wls, len(workloads))
	}
}
