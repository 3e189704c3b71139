package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestMergeKeepsBestOfEachCounter(t *testing.T) {
	a := result{Iterations: 10, NsPerOp: 200, BPerOp: 900, AllocsPerOp: 40, Extra: map[string]float64{"qps": 5}}
	b := result{Iterations: 20, NsPerOp: 100, BPerOp: 1000, AllocsPerOp: 30, Extra: map[string]float64{"qps": 9}}
	got := merge(a, b)
	if got.NsPerOp != 100 || got.Iterations != 20 || got.Extra["qps"] != 9 {
		t.Errorf("time, iterations and extras must come from the fastest run: %+v", got)
	}
	if got.BPerOp != 900 || got.AllocsPerOp != 30 {
		t.Errorf("B/op and allocs/op must each keep their minimum: %+v", got)
	}
}

func TestGate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(base, []byte(`{
  "BenchmarkA": {"iterations":1,"ns_per_op":100,"b_per_op":1000,"allocs_per_op":100},
  "BenchmarkB": {"iterations":1,"ns_per_op":100,"b_per_op":1000,"allocs_per_op":100}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  map[string]result
		want bool
	}{
		{"within tolerance, slower wall clock", map[string]result{
			"BenchmarkA": {NsPerOp: 900, BPerOp: 1100, AllocsPerOp: 110},
		}, true},
		{"bytes over tolerance", map[string]result{
			"BenchmarkA": {NsPerOp: 100, BPerOp: 1101, AllocsPerOp: 100},
		}, false},
		{"allocs over tolerance", map[string]result{
			"BenchmarkB": {NsPerOp: 100, BPerOp: 1000, AllocsPerOp: 111},
		}, false},
		{"no baseline row", map[string]result{
			"BenchmarkC": {NsPerOp: 100, BPerOp: 1, AllocsPerOp: 1},
		}, false},
		{"run without -benchmem", map[string]result{
			"BenchmarkA": {NsPerOp: 100, BPerOp: -1, AllocsPerOp: -1},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok, err := gate(base, tc.run)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.want {
				t.Errorf("gate = %v, want %v", ok, tc.want)
			}
		})
	}
}
