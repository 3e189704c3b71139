package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"testing"
	"time"

	"netarch/internal/catalog"
	"netarch/internal/core"
)

// FuzzQueryRequest fuzzes the body of every /v1 query mode against one
// in-process server per fuzz process, under a tight policy budget. The
// HTTP boundary's contract: every response is a 200 QueryResponse, a 400
// or a 504 ErrorBody — never a 500 (a recovered panic) and never a body
// of another shape.
func FuzzQueryRequest(f *testing.F) {
	modes := make([]string, 0, len(modeKinds))
	for mode := range modeKinds {
		modes = append(modes, mode)
	}
	sort.Strings(modes)
	for _, tc := range wireCases {
		f.Add(uint8(sort.SearchStrings(modes, tc.path[len("/v1/"):])), []byte(tc.body))
	}
	// Out-of-range and unknown values in every scenario field.
	for _, body := range []string{
		`{"scenario": {"num_servers": -5, "num_switches": -1, "max_cost_usd": -10}}`,
		`{"scenario": {"num_servers": 9223372036854775807, "num_switches": 9223372036854775807}}`,
		`{"scenario": {"rack_servers": {"r1": -3, "": 0}}, "max": -1}`,
		`{"scenario": {"pinned_hardware": {"toaster": "x", "nic": ""}, "allowed_hardware": {"switch": []}}}`,
		`{"scenario": {"bounds": [{"dimension": "", "reference": ""}], "require": [""], "workloads": ["nope"]}}`,
		`{"scenario": {"context": {"": true}, "pinned_systems": ["ghost"], "forbidden_systems": [""]}}`,
		`{"scenario": {}, "objectives": ["order:", "order:nope"], "pareto": true}`,
		`{"scenario": {}, "design": {"systems": null, "hardware": {"": ""}}, "delta": {"max_cost_usd": -1}}`,
	} {
		for i := range modes {
			f.Add(uint8(i), []byte(body))
		}
	}

	eng, err := core.New(catalog.CaseStudy())
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{
		Engine:  eng,
		Addr:    "127.0.0.1:0",
		Policy:  core.Budget{MaxConflicts: 200, Timeout: 200 * time.Millisecond},
		Prewarm: []core.Scenario{{Workloads: []string{"inference_app"}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		f.Fatal(err)
	}
	base := "http://" + s.Addr() + "/v1/"

	f.Fuzz(func(t *testing.T, mode uint8, body []byte) {
		path := modes[int(mode)%len(modes)]
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		switch resp.StatusCode {
		case http.StatusOK:
			var qr QueryResponse
			if err := dec.Decode(&qr); err != nil || qr.Mode != path {
				t.Fatalf("%s: 200 body is not a %s QueryResponse (%v):\n%s", path, path, err, raw)
			}
		case http.StatusBadRequest, http.StatusGatewayTimeout:
			var eb ErrorBody
			if err := dec.Decode(&eb); err != nil || eb.Error.Kind == "" {
				t.Fatalf("%s: %d body is not an ErrorBody (%v):\n%s", path, resp.StatusCode, err, raw)
			}
		default:
			t.Fatalf("%s: status %d for body %q:\n%s", path, resp.StatusCode, body, raw)
		}
	})
}
