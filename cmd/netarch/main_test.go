package main

import (
	"flag"
	"strings"
	"testing"
	"time"

	"netarch"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a, b ,c", []string{"a", "b", "c"}},
		{" , ,", nil},
	}
	for _, c := range cases {
		got := splitList(c.in)
		if len(got) != len(c.want) {
			t.Errorf("%q: got %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q: got %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := parseObjectives("cost,cores,systems,order:tail_latency")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 4 {
		t.Fatalf("got %d objectives", len(objs))
	}
	if objs[0].Kind != netarch.MinimizeCost || objs[3].Kind != netarch.PreferOrder ||
		objs[3].Dimension != "tail_latency" {
		t.Errorf("objectives wrong: %+v", objs)
	}
	if _, err := parseObjectives("bogus"); err == nil {
		t.Error("unknown objective must error")
	}
	if _, err := parseObjectives(""); err == nil {
		t.Error("empty objective list must error")
	}
}

func TestScenarioFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	get := scenarioFlags(fs)
	err := fs.Parse([]string{
		"-require", "congestion_control,load_balancing",
		"-context", "deadline_tight=true,wan_dc_mix=false",
		"-pin", "sonata",
		"-forbid", "cubic",
		"-servers", "96",
		"-maxcost", "500000",
		"-pin-server", "Dellora R-64c",
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Require) != 2 || sc.Require[0] != "congestion_control" {
		t.Errorf("require wrong: %v", sc.Require)
	}
	if v, ok := sc.Context["deadline_tight"]; !ok || !v {
		t.Errorf("context wrong: %v", sc.Context)
	}
	if v, ok := sc.Context["wan_dc_mix"]; !ok || v {
		t.Errorf("context wrong: %v", sc.Context)
	}
	if sc.NumServers != 96 || sc.MaxCostUSD != 500000 {
		t.Errorf("numbers wrong: %+v", sc)
	}
	if sc.PinnedHardware[netarch.KindServer] != "Dellora R-64c" {
		t.Errorf("hardware pin wrong: %v", sc.PinnedHardware)
	}
}

func TestScenarioFlagsBadContext(t *testing.T) {
	for _, bad := range []string{"novalue", "atom=maybe"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		get := scenarioFlags(fs)
		if err := fs.Parse([]string{"-context", bad}); err != nil {
			t.Fatal(err)
		}
		if _, err := get(); err == nil {
			t.Errorf("context %q must error", bad)
		}
	}
}

func TestBudgetFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	get := budgetFlags(fs)
	if err := fs.Parse([]string{"-timeout", "1500ms", "-max-conflicts", "42", "-max-decisions", "7"}); err != nil {
		t.Fatal(err)
	}
	b := get()
	if b.Timeout != 1500*time.Millisecond || b.MaxConflicts != 42 || b.MaxDecisions != 7 {
		t.Errorf("budget wrong: %+v", b)
	}

	// Defaults: the zero budget (unbounded).
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	get2 := budgetFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if b := get2(); b != (netarch.Budget{}) {
		t.Errorf("default budget not zero: %+v", b)
	}
}

func TestCmdSolveWithBudgetFlags(t *testing.T) {
	// A generous budget must not change the verdict, and the report must
	// account for what was spent.
	out := capture(t, func() error {
		return cmdSolve([]string{"-require", "congestion_control", "-timeout", "1m", "-max-conflicts", "100000"}, "synth")
	})
	if !strings.Contains(out, "FEASIBLE") || !strings.Contains(out, "spent:") {
		t.Errorf("budgeted synth output wrong:\n%s", out)
	}
}

func TestLoadAnyKB(t *testing.T) {
	jsonKB := `{"systems":[{"name":"x","role":"monitoring"}]}`
	k, err := loadAnyKB([]byte(jsonKB))
	if err != nil {
		t.Fatal(err)
	}
	if k.SystemByName("x") == nil {
		t.Error("JSON KB not loaded")
	}
	dslKB := "system y {\n    role: monitoring\n}\n"
	k, err = loadAnyKB([]byte(dslKB))
	if err != nil {
		t.Fatal(err)
	}
	if k.SystemByName("y") == nil {
		t.Error("DSL KB not loaded")
	}
	if _, err := loadAnyKB([]byte("not a kb at all")); err == nil {
		t.Error("garbage must error")
	}
	if !strings.Contains(dslKB, "system") {
		t.Error("sanity")
	}
}
