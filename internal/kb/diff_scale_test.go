package kb_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// TestDiffOneRuleEditAtScale: a one-rule edit of a 50k-SKU catalog
// shares the Hardware slice, and Diff reports exactly the added rule —
// quickly, because shared entries are never serialized.
func TestDiffOneRuleEditAtScale(t *testing.T) {
	old := catalog.ScaledCatalog(50000)
	next := *old
	next.Rules = append(slices.Clip(old.Rules), kb.Rule{
		Name: "diff_probe", Expr: kb.Implies(kb.CtxAtom("diff_probe"), kb.FalseExpr()),
	})
	start := time.Now()
	d := kb.Diff(old, &next)
	elapsed := time.Since(start)
	want := []kb.DiffEntry{{Section: "rule", Name: "diff_probe", Change: "added"}}
	if !slices.Equal(d, want) {
		t.Fatalf("one-rule edit diffed as %v, want %v", d, want)
	}
	t.Logf("Diff of a one-rule edit at 50k SKUs: %v", elapsed)
}

// bruteDiff is the reference: every name looked up by a linear scan
// and every common entry compared by canonical JSON.
func bruteDiff(old, new *kb.KB) []kb.DiffEntry {
	var out []kb.DiffEntry
	section := func(name string, oldNames, newNames []string, lookup func(*kb.KB, string) any) {
		for _, n := range oldNames {
			if !slices.Contains(newNames, n) {
				out = append(out, kb.DiffEntry{Section: name, Name: n, Change: "removed"})
			}
		}
		for _, n := range newNames {
			if !slices.Contains(oldNames, n) {
				out = append(out, kb.DiffEntry{Section: name, Name: n, Change: "added"})
				continue
			}
			a, _ := json.Marshal(lookup(old, n))
			b, _ := json.Marshal(lookup(new, n))
			if string(a) != string(b) {
				out = append(out, kb.DiffEntry{Section: name, Name: n, Change: "changed"})
			}
		}
	}
	names := func(n int, get func(int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = get(i)
		}
		return out
	}
	section("system", names(len(old.Systems), func(i int) string { return old.Systems[i].Name }),
		names(len(new.Systems), func(i int) string { return new.Systems[i].Name }),
		func(k *kb.KB, n string) any { return k.SystemByName(n) })
	section("hardware", names(len(old.Hardware), func(i int) string { return old.Hardware[i].Name }),
		names(len(new.Hardware), func(i int) string { return new.Hardware[i].Name }),
		func(k *kb.KB, n string) any { return k.HardwareByName(n) })
	section("workload", names(len(old.Workloads), func(i int) string { return old.Workloads[i].Name }),
		names(len(new.Workloads), func(i int) string { return new.Workloads[i].Name }),
		func(k *kb.KB, n string) any { return k.WorkloadByName(n) })
	section("rule", names(len(old.Rules), func(i int) string { return old.Rules[i].Name }),
		names(len(new.Rules), func(i int) string { return new.Rules[i].Name }),
		func(k *kb.KB, n string) any {
			for i := range k.Rules {
				if k.Rules[i].Name == n {
					return &k.Rules[i]
				}
			}
			return (*kb.Rule)(nil)
		})
	section("order", names(len(old.Orders), func(i int) string { return old.Orders[i].Dimension }),
		names(len(new.Orders), func(i int) string { return new.Orders[i].Dimension }),
		func(k *kb.KB, n string) any { return k.OrderByDimension(n) })
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Section != b.Section {
			return a.Section < b.Section
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Change < b.Change
	})
	return out
}

// TestDiffMatchesBruteForce: on a 1k-SKU catalog, random edits —
// hardware, systems, rules and workloads added, removed and changed,
// with the untouched sections shared or copied — diff exactly as the
// brute-force reference.
func TestDiffMatchesBruteForce(t *testing.T) {
	base := catalog.ScaledCatalog(1000)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		next := *base
		if rng.Intn(2) == 0 {
			// Copy instead of sharing, so equal entries are compared by
			// content rather than by reference.
			next.Hardware = append([]kb.Hardware(nil), base.Hardware...)
		}
		for e := 1 + rng.Intn(6); e > 0; e-- {
			switch rng.Intn(7) {
			case 0: // remove a SKU
				i := rng.Intn(len(next.Hardware))
				next.Hardware = slices.Delete(slices.Clone(next.Hardware), i, i+1)
			case 1: // add a SKU
				h := next.Hardware[rng.Intn(len(next.Hardware))]
				h.Name = fmt.Sprintf("%s diff%d", h.Name, rng.Int())
				next.Hardware = append(slices.Clip(next.Hardware), h)
			case 2: // change a SKU's cost
				next.Hardware = slices.Clone(next.Hardware)
				next.Hardware[rng.Intn(len(next.Hardware))].CostUSD += 1 + int64(rng.Intn(100))
			case 3: // add a rule
				next.Rules = append(slices.Clip(next.Rules), kb.Rule{
					Name: fmt.Sprintf("diff_rule_%d", rng.Int()), Expr: kb.CtxAtom("diff"),
				})
			case 4: // remove a rule
				i := rng.Intn(len(next.Rules))
				next.Rules = slices.Delete(slices.Clone(next.Rules), i, i+1)
			case 5: // change a system
				next.Systems = slices.Clone(next.Systems)
				next.Systems[rng.Intn(len(next.Systems))].CoresPerKFlows++
			case 6: // change a workload
				next.Workloads = slices.Clone(next.Workloads)
				next.Workloads[rng.Intn(len(next.Workloads))].PeakCores++
			}
		}
		got, want := kb.Diff(base, &next), bruteDiff(base, &next)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Diff = %v\nbrute force = %v", trial, got, want)
		}
		if len(got) == 0 {
			t.Fatalf("trial %d: edits produced no difference", trial)
		}
	}
}

// TestMergeRejectsDuplicateHardware: Merge's name-set check still
// rejects a SKU already in the KB and one repeated within the merged
// KB.
func TestMergeRejectsDuplicateHardware(t *testing.T) {
	k := catalog.ScaledCatalog(1000)
	dup := &kb.KB{Hardware: []kb.Hardware{k.Hardware[len(k.Hardware)-1]}}
	if err := k.Merge(dup); err == nil {
		t.Fatal("merging an existing SKU must fail")
	}
	h := k.Hardware[0]
	h.Name = "merge-probe"
	twice := &kb.KB{Hardware: []kb.Hardware{h, h}}
	if err := k.Merge(twice); err == nil {
		t.Fatal("merging a KB that repeats a SKU must fail")
	}
	h.Name = "merge-probe-2"
	if err := k.Merge(&kb.KB{Hardware: []kb.Hardware{h}}); err != nil {
		t.Fatalf("merging a fresh SKU: %v", err)
	}
}
