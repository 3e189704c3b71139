package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateWire = flag.Bool("update-wire", false, "rewrite the /v1 wire goldens under testdata/wire")

// wireCase is one fixed /v1 request whose response body is pinned byte
// for byte (wall time aside) by a golden file.
type wireCase struct {
	name   string
	path   string
	body   string
	status int
}

// inferenceDesign is the design the synth golden answers for the
// inference_app scenario; the check golden checks exactly it.
const inferenceDesign = `{"systems": ["edge-proxy-fw", "netsight", "pingmesh", "simon", "snap", "swift", "tcp", "wcmp"],
	"hardware": {"nic": "Xilinxa FPGA-100G-LP", "server": "Dellora RX-96c", "switch": "Brocadia DB-32x200G-LR"}}`

// wireCases is one request per /v1 query mode plus the 400 bodies of the
// request-validation tests, all on the case-study catalog.
var wireCases = []wireCase{
	{"synth", "/v1/synth", `{"scenario": {"workloads": ["inference_app"]}}`, 200},
	{"check", "/v1/check", `{"scenario": {"workloads": ["inference_app"]}, "design": ` + inferenceDesign + `}`, 200},
	{"explain_feasible", "/v1/explain", `{"scenario": {"workloads": ["inference_app"]}}`, 200},
	{"explain_infeasible", "/v1/explain",
		`{"scenario": {"workloads": ["inference_app"], "context": {"pfc_enabled": true, "flooding_enabled": true}}}`, 200},
	{"whatif", "/v1/whatif",
		`{"scenario": {"workloads": ["inference_app"]}, "delta": {"context": {"lossless_fabric": false}}}`, 200},
	{"enumerate", "/v1/enumerate", `{"scenario": {"workloads": ["inference_app"]}, "max": 4}`, 200},
	{"optimize_cost", "/v1/optimize", `{"scenario": {"workloads": ["inference_app"]}, "objectives": ["cost"]}`, 200},
	{"optimize_pareto", "/v1/optimize",
		`{"scenario": {"workloads": ["inference_app"]}, "objectives": ["cost", "power"], "pareto": true}`, 200},
	{"bad_malformed", "/v1/synth", `{"scenario": nope}`, 400},
	{"bad_unknown_field", "/v1/synth", `{"scenarioooo": {}}`, 400},
	{"bad_check_without_design", "/v1/check", `{"scenario": {}}`, 400},
	{"bad_whatif_without_delta", "/v1/whatif", `{"scenario": {}}`, 400},
	{"bad_no_objectives", "/v1/optimize", `{"scenario": {"workloads": ["inference_app"]}}`, 400},
	{"bad_unknown_objective", "/v1/optimize", `{"scenario": {"workloads": ["inference_app"]}, "objectives": ["karma"]}`, 400},
	{"bad_unknown_strategy", "/v1/optimize",
		`{"scenario": {"workloads": ["inference_app"]}, "objectives": ["cost"], "strategy": "quantum"}`, 400},
}

// wallMS matches the one field of a response body that legitimately
// differs from run to run.
var wallMS = regexp.MustCompile(`"wall_ms": [-+.eE0-9]+`)

// TestWireGolden sends every wireCases request to one server and
// compares each response body, with spent.wall_ms zeroed, against
// testdata/wire/<name>.json. Run with -update-wire to re-record.
func TestWireGolden(t *testing.T) {
	_, base := testServer(t, nil)
	for _, tc := range wireCases {
		resp, err := http.Post(base+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d\n%s", tc.name, resp.StatusCode, tc.status, raw)
			continue
		}
		got := wallMS.ReplaceAll(raw, []byte(`"wall_ms": 0`))
		file := filepath.Join("testdata", "wire", tc.name+".json")
		if *updateWire {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response differs from %s\ngot:\n%s\nwant:\n%s", tc.name, file, got, want)
		}
	}

	// The check golden checks the design the synth golden synthesized.
	var synth QueryResponse
	if err := json.Unmarshal(mustRead(t, "testdata/wire/synth.json"), &synth); err != nil {
		t.Fatal(err)
	}
	var check QueryRequest
	if err := json.Unmarshal([]byte(wireCases[1].body), &check); err != nil {
		t.Fatal(err)
	}
	if !equalStrings(synth.Design.Systems, check.Design.Systems) || len(synth.Design.Hardware) != len(check.Design.Hardware) {
		t.Errorf("check golden design %+v is not the synthesized %+v", check.Design, synth.Design)
	}
	for kind, name := range check.Design.Hardware {
		if synth.Design.Hardware[kind] != name {
			t.Errorf("check golden %s %q, synthesized %q", kind, name, synth.Design.Hardware[kind])
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
