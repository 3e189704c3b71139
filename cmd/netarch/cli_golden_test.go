package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateCLI = flag.Bool("update-cli", false, "rewrite the CLI goldens under testdata/cli")

// cliCases is one invocation per query mode, on the case-study catalog.
// The check invocation checks the design the synth invocation prints.
var cliCases = []struct {
	name string
	args []string
}{
	{"synth", []string{"synth", "-require", "congestion_control"}},
	{"check", []string{"check", "-require", "congestion_control",
		"-systems", "andromeda,everflow,homa,pingmesh,quic,simon,snap,swift,wcmp",
		"-switch", "Brocadia DB-32x200G-LR", "-nic", "Marvella SoC-100G", "-server", "Dellora RX-96c"}},
	{"explain", []string{"explain", "-context", "pfc_enabled=true,flooding_enabled=true"}},
	{"optimize", []string{"optimize", "-require", "congestion_control", "-objectives", "systems,cost"}},
	{"optimize_pareto", []string{"optimize", "-pareto", "-require", "congestion_control", "-objectives", "cost,power"}},
	{"suggest", []string{"suggest", "-context", "pfc_enabled=true,flooding_enabled=true"}},
	{"disambiguate", []string{"disambiguate", "-require", "congestion_control"}},
}

// spentWall matches the wall-time column of a "spent:" line, the one
// part of the output that differs from run to run.
var spentWall = regexp.MustCompile(`(?m)^(spent: +\d+ conflicts, \d+ decisions, ).*$`)

// TestCLIGolden runs every cliCases invocation through the CLI's entry
// point and compares stdout, with the wall time masked, against
// testdata/cli/<name>.txt. Run with -update-cli to re-record.
func TestCLIGolden(t *testing.T) {
	oldArgs := os.Args
	defer func() { os.Args = oldArgs }()
	for _, tc := range cliCases {
		os.Args = append([]string{"netarch"}, tc.args...)
		out := capture(t, func() error {
			if code := run(); code != 0 {
				return fmt.Errorf("%s: exit %d", tc.name, code)
			}
			return nil
		})
		got := spentWall.ReplaceAllString(out, "${1}<wall>")
		file := filepath.Join("testdata", "cli", tc.name+".txt")
		if *updateCLI {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: output differs from %s\ngot:\n%s\nwant:\n%s", tc.name, file, got, want)
		}
	}
}
