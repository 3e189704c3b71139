package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// referenceKeep is the brute-force dominance reference for a computed
// slice: it rederives observability and mandatory SKUs from the slice's
// systems and rules, then keeps a SKU of an unrestricted kind iff it is
// mandatory or no non-mandatory SKU of its kind with the same observable
// capabilities, earlier in (cost, catalog index) order, dominates it —
// Quant maps compared directly over every pair, no index, no memo.
// Restricted kinds keep exactly their mandatory SKUs. Returns the kept
// names in catalog order.
func referenceKeep(k *kb.KB, sl *kbSlice) []string {
	observable := map[kb.HardwareKind]map[kb.Capability]bool{
		kb.KindSwitch: {}, kb.KindNIC: {}, kb.KindServer: {kb.CapCXL: true},
	}
	for i := range sl.sub.Systems {
		for kind, caps := range sl.sub.Systems[i].RequiresCaps {
			if m, ok := observable[kind]; ok {
				for _, c := range caps {
					m[c] = true
				}
			}
		}
	}
	mandatory := map[string]bool{}
	for _, name := range sl.req.mandatoryHW {
		mandatory[name] = true
	}
	for _, r := range sl.sub.Rules {
		for _, a := range r.Expr.Atoms(nil) {
			var kindStr, capStr string
			if parseCapAtom(a, &kindStr, &capStr) {
				if m, ok := observable[kb.HardwareKind(kindStr)]; ok {
					m[kb.Capability(capStr)] = true
				}
			} else if name, ok := atomHw(a); ok {
				mandatory[name] = true
			}
		}
	}
	sig := func(h *kb.Hardware) string {
		var caps []string
		for _, c := range h.Caps {
			if observable[h.Kind][c] {
				caps = append(caps, string(c))
			}
		}
		sort.Strings(caps)
		return strings.Join(caps, ",")
	}
	dominates := func(a, b *kb.Hardware) bool {
		if a.CostUSD > b.CostUSD {
			return false
		}
		axes := map[kb.Resource]bool{}
		for r := range a.Quant {
			axes[r] = true
		}
		for r := range b.Quant {
			axes[r] = true
		}
		for r := range axes {
			if smallerBetterQuant(a.Kind, r) {
				if a.Q(r) > b.Q(r) {
					return false
				}
			} else if a.Q(r) < b.Q(r) {
				return false
			}
		}
		return true
	}
	sigs := make([]string, len(k.Hardware))
	for i := range k.Hardware {
		sigs[i] = sig(&k.Hardware[i])
	}
	var kept []string
	for i := range k.Hardware {
		h := &k.Hardware[i]
		if sl.req.restrictedKinds[h.Kind] || mandatory[h.Name] {
			if mandatory[h.Name] {
				kept = append(kept, h.Name)
			}
			continue
		}
		dominated := false
		for j := range k.Hardware {
			g := &k.Hardware[j]
			earlier := g.CostUSD < h.CostUSD || (g.CostUSD == h.CostUSD && j < i)
			if j == i || !earlier || g.Kind != h.Kind || mandatory[g.Name] || sigs[j] != sigs[i] {
				continue
			}
			if dominates(g, h) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, h.Name)
		}
	}
	return kept
}

// refProbeKB is ScaledCatalog(n) plus two rules that pull hardware into
// every slice: one names a dominated NIC (a mandatory SKU from a hw:
// atom) and one makes the switch INT capability observable (a cap:
// atom).
func refProbeKB(t *testing.T, n int) *kb.KB {
	t.Helper()
	k := catalog.ScaledCatalog(n)
	sl := mustSlice(t, k, sliceTestScenario())
	inSub := map[string]bool{}
	for i := range sl.sub.Hardware {
		inSub[sl.sub.Hardware[i].Name] = true
	}
	var pruned string
	for i := range k.Hardware {
		if h := &k.Hardware[i]; h.Kind == kb.KindNIC && !inSub[h.Name] {
			pruned = h.Name
			break
		}
	}
	if pruned == "" {
		t.Fatalf("no NIC pruned at %d SKUs; the hw: probe needs one", n)
	}
	k.Rules = append(k.Rules,
		kb.Rule{Name: "ref_probe_hw", Expr: kb.Implies(kb.HwAtom(pruned), kb.CtxAtom("ref_probe"))},
		kb.Rule{Name: "ref_probe_cap", Expr: kb.Implies(kb.CapAtom(kb.KindSwitch, kb.CapINT), kb.CtxAtom("ref_probe"))},
	)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	return k
}

// refScenarios draws seeded scenarios over k: workload subsets and
// fleet sizes, required properties, allow-listed kinds (sometimes with
// a SKU of another kind mixed in), pinned kinds, and CXL pooling.
func refScenarios(k *kb.KB, seed int64, n int) []Scenario {
	rng := rand.New(rand.NewSource(seed))
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
	kinds := []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer}
	byKind := map[kb.HardwareKind][]string{}
	for i := range k.Hardware {
		h := &k.Hardware[i]
		byKind[h.Kind] = append(byKind[h.Kind], h.Name)
	}
	out := make([]Scenario, n)
	for i := range out {
		sc := Scenario{NumServers: []int{16, 32, 64, 96}[rng.Intn(4)]}
		for _, wi := range rng.Perm(len(k.Workloads))[:1+rng.Intn(2)] {
			sc.Workloads = append(sc.Workloads, k.Workloads[wi].Name)
		}
		for rng.Intn(3) == 0 {
			sc.Require = append(sc.Require, props[rng.Intn(len(props))])
		}
		if rng.Intn(4) == 0 {
			kind := kinds[rng.Intn(len(kinds))]
			names := byKind[kind]
			var allow []string
			for _, j := range rng.Perm(len(names))[:8+rng.Intn(24)] {
				allow = append(allow, names[j])
			}
			if rng.Intn(3) == 0 {
				other := byKind[kinds[(slices.Index(kinds, kind)+1)%len(kinds)]]
				allow = append(allow, other[rng.Intn(len(other))])
			}
			sc.AllowedHardware = map[kb.HardwareKind][]string{kind: allow}
		}
		if rng.Intn(5) == 0 {
			kind := kinds[rng.Intn(len(kinds))]
			names := byKind[kind]
			sc.PinnedHardware = map[kb.HardwareKind]string{kind: names[rng.Intn(len(names))]}
		}
		if rng.Intn(4) == 0 {
			sc.Context = map[string]bool{"cxl_pooling": rng.Intn(2) == 0}
		}
		out[i] = sc
	}
	return out
}

func sliceRequestFor(t *testing.T, k *kb.KB, sc Scenario) *sliceRequest {
	t.Helper()
	shape := baseShape(&sc)
	req := deriveSliceRequest(k, &sc, &shape)
	if req == nil {
		t.Fatalf("slice request underivable for %+v", sc)
	}
	return req
}

// TestPruneHardwareMatchesReference pins the hardware index and its
// skyline memo to the brute-force dominance reference: on seeded
// requests over 1k- and 5k-SKU catalogs the kept SKUs are exactly the
// reference's, in catalog order; a repeated skyline key is a memo hit
// that runs no dominance scan; and concurrent sliceFor calls agree with
// sequential ones (run under -race by make scale-diff).
func TestPruneHardwareMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		skus, requests int
		probes         bool
	}{
		{1000, 40, false},
		{1000, 40, true},
		{5000, 12, true},
	} {
		t.Run(fmt.Sprintf("skus=%d/probes=%v", tc.skus, tc.probes), func(t *testing.T) {
			k := catalog.ScaledCatalog(tc.skus)
			if tc.probes {
				k = refProbeKB(t, tc.skus)
			}
			idx := newHWIndex(k, 0, &hwStats{})
			for i, sc := range refScenarios(k, int64(tc.skus), tc.requests) {
				sl := computeSlice(k, sliceRequestFor(t, k, sc), idx)
				var got []string
				for j := range sl.sub.Hardware {
					got = append(got, sl.sub.Hardware[j].Name)
				}
				if want := referenceKeep(k, sl); !slices.Equal(got, want) {
					t.Fatalf("request %d (%+v): kept %d SKUs, reference %d\ngot  %q\nwant %q",
						i, sc, len(got), len(want), got, want)
				}
				if sl.skusKept != len(got) {
					t.Fatalf("request %d: skusKept %d, sub-KB has %d", i, sl.skusKept, len(got))
				}
			}
			if idx.stats.builds.Load() != 1 {
				t.Fatalf("index built %d times, want once", idx.stats.builds.Load())
			}
		})
	}

	t.Run("memo-hit", func(t *testing.T) {
		k := catalog.ScaledCatalog(1000)
		eng, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetSliceMode(SliceOn)
		first := sliceTestScenario()
		// A different fleet size is a different slice request with the
		// same cone, so every kind's skyline key repeats.
		second := first
		second.NumServers = 96
		slice := func(sc Scenario) *kbSlice {
			shape := baseShape(&sc)
			return eng.sliceFor(k, 0, &sc, &shape)
		}
		a := slice(first)
		st := eng.CacheStats()
		if st.SkylineComputed != 3 || st.SkylineHits != 0 || st.HWIndexBuilds != 1 {
			t.Fatalf("after the first slice: %+v, want 3 skylines computed, 0 hits, 1 index build", st)
		}
		b := slice(second)
		st2 := eng.CacheStats()
		if st2.SliceComputed != 2 {
			t.Fatalf("second request was not a new slice request: %+v", st2)
		}
		if st2.SkylineComputed != st.SkylineComputed || st2.SkylineHits != 3 || st2.HWIndexBuilds != 1 {
			t.Fatalf("repeated skyline keys ran a dominance scan: %+v", st2)
		}
		if a.id != b.id || a.sub != b.sub {
			t.Fatalf("equal cones sliced differently or did not share a sub-KB: %s vs %s", a.id, b.id)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		k := catalog.ScaledCatalog(1000)
		scs := refScenarios(k, 7, 16)
		want := make([]string, len(scs))
		ref := newHWIndex(k, 0, &hwStats{})
		for i, sc := range scs {
			want[i] = computeSlice(k, sliceRequestFor(t, k, sc), ref).id
		}
		eng, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetSliceMode(SliceOn)
		var wg sync.WaitGroup
		errs := make(chan string, 8*len(scs))
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := range scs {
					i := (n + w) % len(scs)
					sc := scs[i]
					shape := baseShape(&sc)
					if got := eng.sliceFor(k, 0, &sc, &shape); got.id != want[i] {
						errs <- fmt.Sprintf("worker %d request %d: slice %s, want %s", w, i, got.id, want[i])
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		if st := eng.CacheStats(); st.HWIndexBuilds != 1 {
			t.Fatalf("concurrent first use built the index %d times: %+v", st.HWIndexBuilds, st)
		}
	})
}

// BenchmarkSliceCompute measures one relevance-slice computation on a
// 50k-SKU catalog with the hardware index warm: every iteration is a
// fresh slice request (computeSlice, not the engine's request memo)
// drawn from a fixed population of seeded scenarios, so the cone
// fixpoint, the skyline lookups and the slice id run each time.
func BenchmarkSliceCompute(b *testing.B) {
	const skus = 50000
	b.Run(fmt.Sprintf("skus=%d", skus), func(b *testing.B) {
		k := catalog.ScaledCatalog(skus)
		var reqs []*sliceRequest
		for _, sc := range refScenarios(k, skus, 64) {
			shape := baseShape(&sc)
			reqs = append(reqs, deriveSliceRequest(k, &sc, &shape))
		}
		idx := newHWIndex(k, 0, &hwStats{})
		for _, req := range reqs {
			computeSlice(k, req, idx)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			computeSlice(k, reqs[i%len(reqs)], idx)
		}
	})
}

// BenchmarkHWIndexBuild measures building the hardware index of a
// 50k-SKU catalog, the one-off cost of the first sliced compile.
func BenchmarkHWIndexBuild(b *testing.B) {
	k := catalog.ScaledCatalog(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newHWIndex(k, 0, &hwStats{}).ready()
	}
}
