package netarch_test

import (
	"reflect"
	"sort"
	"testing"

	"netarch"
)

// This file is the facade-level differential for portfolio solving: for
// the §5.1 case-study queries, Synthesize must return byte-identical
// verdicts and designs whatever the portfolio width — racing diversified
// workers is a latency knob, never an answer knob. `make verify` runs
// these tests explicitly (the portfolio-diff target).

func TestPortfolioWorkerInvariance(t *testing.T) {
	eng, err := netarch.NewEngine(caseStudyAllKB())
	if err != nil {
		t.Fatal(err)
	}
	scenarios := sec51Scenarios(t, eng)
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := scenarios[name]
		eng.SetPortfolio(1)
		want, err := eng.Synthesize(sc)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		// Explanations are compared among portfolio runs only: the n==1
		// path uses the legacy core-seeded minimization, which may land
		// on a different (equally minimal) conflict set than the
		// normalized portfolio minimization.
		var wantEx *netarch.Explanation
		for _, n := range []int{2, 4, 8} {
			eng.SetPortfolio(n)
			got, err := eng.Synthesize(sc)
			if err != nil {
				t.Fatalf("%s portfolio=%d: %v", name, n, err)
			}
			if got.Verdict != want.Verdict {
				t.Errorf("%s portfolio=%d: verdict %v, want %v", name, n, got.Verdict, want.Verdict)
			}
			if !reflect.DeepEqual(got.Design, want.Design) {
				t.Errorf("%s portfolio=%d: design diverges from sequential", name, n)
			}
			if want.Verdict == netarch.Infeasible {
				if wantEx == nil {
					wantEx = got.Explanation
				} else if !reflect.DeepEqual(got.Explanation, wantEx) {
					t.Errorf("%s portfolio=%d: explanation diverges across widths:\ngot  %v\nwant %v",
						name, n, got.Explanation, wantEx)
				}
			}
		}
	}
	eng.SetPortfolio(0)
}

// TestWarmStartRoundTrip drives the full warm-start loop through the
// public facade: solve with a cache dir, flush the snapshot (now carrying
// the warm profile), restart into a fresh engine over the same dir, and
// prove the revived profile changes nothing about correctness.
func TestWarmStartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc := netarch.Scenario{Workloads: []string{"inference_app"}}

	eng1, err := netarch.NewEngine(caseStudyAllKB())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	eng1.SetWarmStart(true)
	first, err := eng1.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng1.FlushDiskCache(); n == 0 {
		t.Fatal("flush persisted no snapshots after a warm-start solve")
	}

	eng2, err := netarch.NewEngine(caseStudyAllKB())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	eng2.SetWarmStart(true)
	second, err := eng2.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng2.CacheStats(); st.DiskHits == 0 {
		t.Fatalf("restarted engine revived nothing from disk: %+v", st)
	}
	if second.Verdict != first.Verdict {
		t.Fatalf("warm-started verdict %v, cold %v", second.Verdict, first.Verdict)
	}
	// A warm start may legitimately steer the solver to a different
	// model, so validate the design rather than comparing models.
	if second.Verdict == netarch.Feasible {
		chk, err := eng2.Check(*second.Design, sc)
		if err != nil {
			t.Fatal(err)
		}
		if chk.Verdict != netarch.Feasible {
			t.Fatalf("warm-started design fails its own check: %v", chk.Explanation)
		}
	}
}
