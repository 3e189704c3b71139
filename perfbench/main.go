// Command perfbench is netarch's end-to-end benchmark. For one workload
// and seed it generates the workload's queries, runs them for a fixed
// time against the program's public entry points with default settings,
// checks every answer, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds the
// program from source first:
//
//	bash perfbench/run.sh --workload interactive-seed --seed 1 --seconds 20 --trace 0
//
// Workloads (all seeded, single-process and closed-loop):
//
//   - interactive-seed: one library client on the seed catalog running an
//     architect's session of synth, check, explain, what-if, optimize and
//     enumerate questions.
//   - churn-50k: one library client on the 50k-SKU catalog, drawing
//     scenarios from a skewed population four times the base cache.
//   - serve-reload: nproc HTTP clients against an in-process query
//     service, with a share of one-rule KB reloads.
//
// A traced run (-trace 1) runs the workload twice, untraced then traced;
// the traced pass records a span around every call into a layer and
// reduces them to per-layer times, and the difference between the two
// passes is the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netarch"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*phase, error){
	"interactive-seed": runInteractive,
	"churn-50k":        runChurn,
	"serve-reload":     runServe,
}

type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil on the untraced pass
}

func main() {
	workload := flag.String("workload", "", "workload to run: interactive-seed, churn-50k or serve-reload")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 20, "measured seconds per pass")
	traceOn := flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	writeExpected := flag.String("write-churn-expected", "", "recompute the churn-50k expected answers into this file and exit")
	flag.Parse()

	if *writeExpected != "" {
		if err := writeChurnExpected(*writeExpected); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload interactive-seed|churn-50k|serve-reload, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	plain, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: plain.correct(), Attempted: plain.tally.Attempted, Failed: plain.tally.Failed()}
	report(os.Stderr, *workload, "untraced", plain)
	e2e := plain.endToEnd()
	if *traceOn == 0 {
		res.Metrics = withUnits(e2e, endToEndUnits)
	} else {
		cfg.tr = newTracer()
		traced, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		report(os.Stderr, *workload, "traced", traced)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		layers, err := traced.perLayer(cfg.tr, e2e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		res.Correct = res.Correct && traced.correct()
		res.Attempted += traced.tally.Attempted
		res.Failed += traced.tally.Failed()
		res.Metrics = withUnits(layers, perLayerUnits)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func withUnits(vals map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(vals))
	for name, v := range vals {
		u, ok := units[name]
		if !ok {
			panic("metric without a unit: " + name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{Value: v, Unit: u}
	}
	return out
}

// endToEndUnits lists every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"latency_p50_ms":     "ms",
	"latency_p99_ms":     "ms",
	"throughput_qps":     "1/s",
	"alloc_mb_per_query": "MB",
	"heap_retained_mb":   "MB",
	"reload_p50_ms":      "ms",
}

// phase is the outcome of one pass over a workload.
type phase struct {
	setupS    []float64 // each set-up repetition
	lat       []float64 // per completed query, ms
	wall      time.Duration
	tally     tally
	allocB    uint64    // heap bytes allocated during the timed region
	heapLive  []float64 // live heap after each query, bytes
	reloadMS  []float64
	wrongNote []string
	// layer holds the per-layer counters and ratios measured during the
	// pass; layerTimes the per-call durations (ms) of layers whose time
	// the program reports itself (the service's spent.wall_ms).
	layer      map[string]float64
	layerTimes map[string][]float64
}

func newPhase() *phase {
	return &phase{layer: map[string]float64{}, layerTimes: map[string][]float64{}}
}

func (p *phase) correct() bool { return p.tally.ByOutcome[outcomeWrong] == 0 }

func (p *phase) completed() int { return len(p.lat) }

func (p *phase) endToEnd() map[string]float64 {
	d := summarize(append([]float64(nil), p.lat...))
	n := float64(max(p.completed(), 1))
	return map[string]float64{
		"setup_s":            median(p.setupS),
		"latency_p50_ms":     d.P50,
		"latency_p99_ms":     d.Tail,
		"throughput_qps":     float64(p.completed()) / p.wall.Seconds(),
		"alloc_mb_per_query": float64(p.allocB) / n / 1e6,
		"heap_retained_mb":   median(p.heapLive) / 1e6,
		"reload_p50_ms":      median(p.reloadMS),
	}
}

// timedNames are the layer calls whose durations are reported as
// p50/p99 with a sample count.
var timedNames = []string{"core.synth", "core.check", "core.explain", "core.enumerate", "maxsat.optimize"}

// setupNames are the set-up calls, reported as the median per call.
var setupNames = []string{"catalog.build", "core.new", "core.prewarm"}

// queryLayers are the layers whose self time is reported per query.
var queryLayers = []string{"harness", "core", "maxsat", "serve"}

// perLayerUnits lists every per-layer metric with its unit.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"core.cache.hit_ratio":            "ratio",
		"core.cache.hit_ratio.base":       "count",
		"core.cache.compiles":             "count",
		"core.cache.bases_resident":       "count",
		"core.cache.pool_hit_ratio":       "ratio",
		"core.cache.pool_hit_ratio.base":  "count",
		"core.slice.memo_hit_ratio":       "ratio",
		"core.slice.memo_hit_ratio.base":  "count",
		"core.slice.skus_kept_per_slice":  "count",
		"core.slice.slices_computed":      "count",
		"core.slice.retention":            "ratio",
		"core.slice.retention.base":       "count",
		"sat.conflicts_per_query":         "count",
		"sat.decisions_per_query":         "count",
		"sat.queries":                     "count",
		"maxsat.conflicts_per_optimize":   "count",
		"maxsat.levels_certified":         "ratio",
		"maxsat.levels":                   "count",
		"core.update.shard_reuse_ratio":   "ratio",
		"core.update.shards":              "count",
		"core.update.bases_updated":       "count",
		"serve.overhead_ms":               "ms",
		"serve.reload_overlap_p99_ms":     "ms",
		"serve.reload_overlap.n":          "count",
		"serve.shed":                      "count",
		"serve.errors":                    "count",
		"harness.error_rate":              "ratio",
		"harness.attempted":               "count",
		"harness.latency_samples":         "count",
		"harness.latency_tail_percentile": "%",
		"trace.spans":                     "count",
	}
	for _, n := range timedNames {
		u[n+"_ms.p50"], u[n+"_ms.p99"], u[n+"_ms.n"] = "ms", "ms", "count"
	}
	for _, n := range setupNames {
		u[n+"_ms"] = "ms"
	}
	for _, l := range queryLayers {
		u["layer."+l+".self_ms_per_query"] = "ms"
	}
	for name, unit := range endToEndUnits {
		u["trace.overhead."+name] = unit
	}
	return u
}()

// perLayer assembles the per-layer metrics of a traced pass: span
// durations and self times, the pass's counters, and the tracing
// overhead against the untraced pass's end-to-end metrics.
func (p *phase) perLayer(tr *tracer, untraced map[string]float64) (map[string]float64, error) {
	sum, err := reduceSpans(tr.spans)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range p.layer {
		out[k] = v
	}
	for _, n := range timedNames {
		xs := append(append([]float64(nil), sum.Durations[n]...), p.layerTimes[n]...)
		d := summarize(xs)
		out[n+"_ms.p50"], out[n+"_ms.p99"], out[n+"_ms.n"] = d.P50, d.Tail, float64(d.N)
	}
	for _, n := range setupNames {
		out[n+"_ms"] = median(sum.Durations[n])
	}
	q := float64(max(p.tally.Attempted, 1))
	for _, l := range queryLayers {
		out["layer."+l+".self_ms_per_query"] = sum.SelfMS[l] / q
	}
	out["trace.spans"] = float64(sum.Spans)
	d := summarize(append([]float64(nil), p.lat...))
	out["harness.error_rate"] = p.tally.errorRate().Value()
	out["harness.attempted"] = float64(p.tally.Attempted)
	out["harness.latency_samples"] = float64(d.N)
	out["harness.latency_tail_percentile"] = d.TailPct
	for name, v := range p.endToEnd() {
		out["trace.overhead."+name] = v - untraced[name]
	}
	for name := range perLayerUnits {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	return out, nil
}

// setRatio records a ratio and its base under name and name.base.
func (p *phase) setRatio(name string, r ratio) {
	p.layer[name] = r.Value()
	p.layer[name+".base"] = r.Base
}

// cacheDeltas records the cache, pool and slice counters moved by the
// timed region. prewarmed counts queries that prewarmed their own base
// first (the traced churn pass); their second base and slice lookups,
// sure hits, are not counted.
func (p *phase) cacheDeltas(before, after netarch.CacheStats, prewarmed int) {
	lookups := float64((after.Hits+after.DiskHits+after.Misses)-(before.Hits+before.DiskHits+before.Misses)) - float64(prewarmed)
	hits := float64(after.Hits+after.DiskHits-before.Hits-before.DiskHits) - float64(prewarmed)
	p.setRatio("core.cache.hit_ratio", ratio{hits, lookups})
	p.layer["core.cache.compiles"] = float64(after.Misses - before.Misses)
	p.layer["core.cache.bases_resident"] = float64(after.Size)
	poolHits := float64(after.PoolHits - before.PoolHits)
	p.setRatio("core.cache.pool_hit_ratio", ratio{poolHits, poolHits + float64(after.PoolMisses-before.PoolMisses)})
	sliceHits := float64(after.SliceHits-before.SliceHits) - float64(prewarmed)
	computed := float64(after.SliceComputed - before.SliceComputed)
	p.setRatio("core.slice.memo_hit_ratio", ratio{sliceHits, sliceHits + computed})
	kept := float64(after.SliceSKUsKept - before.SliceSKUsKept)
	p.layer["core.slice.skus_kept_per_slice"] = ratio{kept, computed}.Value()
	p.layer["core.slice.slices_computed"] = computed
	p.setRatio("core.slice.retention", ratio{kept, float64(after.SliceSKUsIn - before.SliceSKUsIn)})
}

// solverWork accumulates the solver counters reported with each answer.
type solverWork struct {
	conflicts, decisions, queries float64
	optConflicts, optimizes       float64
	certified, levels             float64
}

func (w *solverWork) add(sp netarch.BudgetSpent) {
	w.conflicts += float64(sp.Conflicts)
	w.decisions += float64(sp.Decisions)
	w.queries++
}

func (w *solverWork) addOptimize(conflicts int64, values, lower []int64) {
	w.optConflicts += float64(conflicts)
	w.optimizes++
	for i := range values {
		w.levels++
		if i < len(lower) && lower[i] == values[i] {
			w.certified++
		}
	}
}

func (p *phase) solver(w solverWork) {
	p.layer["sat.conflicts_per_query"] = ratio{w.conflicts, w.queries}.Value()
	p.layer["sat.decisions_per_query"] = ratio{w.decisions, w.queries}.Value()
	p.layer["sat.queries"] = w.queries
	p.layer["maxsat.conflicts_per_optimize"] = ratio{w.optConflicts, w.optimizes}.Value()
	p.layer["maxsat.levels_certified"] = ratio{w.certified, w.levels}.Value()
	p.layer["maxsat.levels"] = w.levels
}

// updates accumulates KB-update summaries.
type updates struct {
	reused, converted, basesUpdated, n float64
}

func (u *updates) add(reused, converted, bases int) {
	u.reused += float64(reused)
	u.converted += float64(converted)
	u.basesUpdated += float64(bases)
	u.n++
}

func (p *phase) update(u updates) {
	r := ratio{u.reused, u.reused + u.converted}
	p.layer["core.update.shard_reuse_ratio"] = r.Value()
	p.layer["core.update.shards"] = r.Base
	p.layer["core.update.bases_updated"] = ratio{u.basesUpdated, u.n}.Value()
}

// noServe fills the service-only counters with zeros on library
// workloads, which have no service layer.
func (p *phase) noServe() {
	for _, n := range []string{"serve.overhead_ms", "serve.reload_overlap_p99_ms", "serve.reload_overlap.n", "serve.shed", "serve.errors"} {
		p.layer[n] = 0
	}
}

// session is one closed-loop client: it times queries, wraps each call
// into a layer in a span, and counts outcomes and solver work.
type session struct {
	tr      *tracer
	reqBase int64
	req     int64
	lat     []float64
	spans   []interval // start/end of each completed query
	gauge   heapGauge
	heap    []float64 // live heap after each query
	tally   tally
	work    solverWork
	answers []answer
	// prewarmed counts queries that prewarmed their base first.
	prewarmed int
	// layerTimes and overheadMS hold the service's own per-call times
	// (spent.wall_ms) and the client RTT beyond them.
	layerTimes map[string][]float64
	overheadMS []float64
}

type interval struct{ a, b time.Time }

func (iv interval) overlaps(o interval) bool { return iv.a.Before(o.b) && o.a.Before(iv.b) }

// query times one query. do makes the calls, each wrapped by call, and
// returns the outcome.
func (s *session) query(do func(root int) outcome) {
	s.req++
	root := s.tr.begin("harness.query", -1, s.reqBase+s.req)
	t0 := time.Now()
	o := do(root)
	t1 := time.Now()
	s.tr.end(root)
	s.tally.add(o)
	if o == outcomeOK {
		s.lat = append(s.lat, float64(t1.Sub(t0).Nanoseconds())/1e6)
		s.spans = append(s.spans, interval{t0, t1})
	}
	if h, err := s.gauge.read(); err == nil {
		s.heap = append(s.heap, h)
	}
}

func newSession(tr *tracer, reqBase int64) *session {
	return &session{tr: tr, reqBase: reqBase, gauge: newHeapGauge(), layerTimes: map[string][]float64{}}
}

// call wraps one call into a layer's public function in a span.
func (s *session) call(name string, root int, f func()) {
	id := s.tr.begin(name, root, s.reqBase+s.req)
	f()
	s.tr.end(id)
}

// timedSetup runs one set-up repetition, after a collection so that
// garbage from earlier repetitions is not charged to it, and returns its
// duration in seconds.
func timedSetup(f func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// spanned wraps a set-up call in a span of request 0.
func spanned(tr *tracer, name string, f func() error) error {
	id := tr.begin(name, -1, 0)
	defer tr.end(id)
	return f()
}

// markWrong reclassifies wrong answers in the tally.
func (p *phase) markWrong(n int, notes []string) {
	for i := 0; i < n; i++ {
		p.tally.wrong()
	}
	p.wrongNote = append(p.wrongNote, notes...)
}

// report prints a pass's outcome for a reader.
func report(w io.Writer, workload, pass string, p *phase) {
	d := summarize(append([]float64(nil), p.lat...))
	e := p.endToEnd()
	fmt.Fprintf(w, "%s (%s): %d attempted, %d failed (error rate %.4f), %d completed in %.1fs\n",
		workload, pass, p.tally.Attempted, p.tally.Failed(), p.tally.errorRate().Value(), d.N, p.wall.Seconds())
	for i, n := range p.tally.ByOutcome {
		if i != int(outcomeOK) && n > 0 {
			fmt.Fprintf(w, "  failed as %s: %d\n", outcome(i), n)
		}
	}
	fmt.Fprintf(w, "  latency p50 %.2f ms, p%.1f %.2f ms (n=%d); cache hit ratio %.3f of %.0f lookups, %.0f compiles\n",
		d.P50, d.TailPct, d.Tail, d.N, p.layer["core.cache.hit_ratio"], p.layer["core.cache.hit_ratio.base"], p.layer["core.cache.compiles"])
	names := make([]string, 0, len(e))
	for n := range e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-20s %12.4f %s\n", n, e[n], endToEndUnits[n])
	}
	for _, note := range p.wrongNote {
		fmt.Fprintln(w, "  wrong answer:", note)
	}
}
