package netarch_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"netarch"
)

// TestPublicAPISurface exercises the exported facade end to end: load the
// catalog, synthesize, check, optimize, explain — the quickstart flow.
func TestPublicAPISurface(t *testing.T) {
	k := netarch.DefaultCatalog()
	eng, err := netarch.NewEngine(k)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := eng.Synthesize(netarch.Scenario{
		Require: []netarch.Property{"congestion_control"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != netarch.Feasible {
		t.Fatalf("catalog scenario must be feasible: %v", rep.Explanation)
	}
	if len(rep.Design.Systems) == 0 {
		t.Fatal("design must deploy systems")
	}

	// Check the witness back.
	chk, err := eng.Check(*rep.Design, netarch.Scenario{
		Require: []netarch.Property{"congestion_control"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Verdict != netarch.Feasible {
		t.Fatalf("witness must pass its own check: %v", chk.Explanation)
	}

	// Optimize.
	opt, err := eng.Optimize(netarch.Scenario{
		Require: []netarch.Property{"congestion_control"},
	}, []netarch.Objective{{Kind: netarch.MinimizeSystems}})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Verdict != netarch.Feasible || opt.ObjectiveValues[0] < 1 {
		t.Fatalf("optimize failed: %+v", opt)
	}

	// Explain an impossible ask.
	ex, err := eng.Explain(netarch.Scenario{
		Context: map[string]bool{"pfc_enabled": true, "flooding_enabled": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil || len(ex.Conflicts) == 0 {
		t.Fatal("impossible scenario must produce an explanation")
	}
}

// TestGovernedAPISurface exercises the resource-governance facade: *Ctx
// queries under budgets, the typed exhaustion error, and degraded-mode
// labelling.
func TestGovernedAPISurface(t *testing.T) {
	eng, err := netarch.NewEngine(netarch.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}

	// A generous budget answers like the ungoverned call.
	out, err := eng.Do(context.Background(), netarch.Query{
		Kind:     netarch.QuerySynthesize,
		Scenario: netarch.Scenario{Require: []netarch.Property{"congestion_control"}},
		Budget:   netarch.Budget{Timeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Report
	if rep.Verdict != netarch.Feasible {
		t.Fatalf("governed synthesize failed: %v", rep.Explanation)
	}
	if rep.Spent.Wall <= 0 {
		t.Errorf("budget accounting missing: %+v", rep.Spent)
	}

	// An expired context is a typed, inspectable refusal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.Do(ctx, netarch.Query{Kind: netarch.QuerySynthesize})
	if !netarch.IsResourceExhausted(err) {
		t.Fatalf("want resource exhaustion, got %v", err)
	}
	var re *netarch.ErrResourceExhausted
	if !errors.As(err, &re) || re.Cause != "canceled" {
		t.Fatalf("exhaustion not inspectable: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("errors.Is(err, context.Canceled) must hold")
	}

	// Governed enumeration labels its completeness explicitly.
	res, err := eng.EnumerateCtx(context.Background(), netarch.Scenario{
		Require: []netarch.Property{"congestion_control"},
	}, 2, netarch.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Reason != "limit" {
		t.Fatalf("limit truncation mislabeled: %+v", res)
	}
}

func TestCaseStudyExport(t *testing.T) {
	k := netarch.CaseStudy()
	if k.WorkloadByName("inference_app") == nil {
		t.Fatal("case study must include the inference workload")
	}
	g := netarch.NewGreedy(k)
	if g == nil {
		t.Fatal("greedy constructor broken")
	}
}
