package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"netarch"
	"netarch/internal/kb"
	"netarch/internal/serve"
)

// serveReloadPer is how many questions the question client asks per
// one-rule reload the admin client sends.
const serveReloadPer = 25

// serveSetupReps is how many times the service pass boots a server.
const serveSetupReps = 5

// serveEdits is how many distinct one-rule edits the reloads cycle
// through.
const serveEdits = 8

// runServe drives an in-process query service with default settings
// from two HTTP clients: a closed-loop question client and an admin
// client that reloads the KB once per serveReloadPer questions, so KB
// writes run beside the reads in the same cache and update layer.
func runServe(cfg runConfig) (*phase, error) {
	k0 := seedKB()
	specs := serveInputs(k0)
	rl, err := newReloader(k0, edits(cfg.seed, serveEdits))
	if err != nil {
		return nil, err
	}
	p := newPhase()
	var srv *serve.Server
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			if err := stopServer(srv); err != nil {
				return nil, err
			}
		}
		s, err := timedSetup(func() (err error) {
			srv, err = startServer(cfg.tr)
			return err
		})
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, s)
	}
	base := "http://" + srv.Addr()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2}}
	defer hc.CloseIdleConnections()

	before, err := statsz(hc, base)
	if err != nil {
		return nil, err
	}
	// Two clients: one asks questions back to back; after every
	// serveReloadPer questions it signals the other, which reloads the KB
	// while the questions go on.
	queries, admin := newSession(cfg.tr, 1<<32), newSession(cfg.tr, 2<<32)
	st := newStream(cfg.seed, serveMix, seedSkew, seedTop)
	// One pending signal at most: a reload still running when the next
	// is due skips that one rather than stall the questions.
	signal := make(chan struct{}, 1)
	alloc0, err := heapAllocBytes()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(signal)
		for n := 1; time.Now().Before(deadline); n++ {
			_, i := st.next()
			serveQuery(queries, hc, base, i, specs[i])
			if n%serveReloadPer == 0 {
				select {
				case signal <- struct{}{}:
				default:
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range signal {
			rl.reload(admin, hc, base)
		}
	}()
	wg.Wait()
	p.wall = time.Since(start)
	alloc1, _ := heapAllocBytes()
	p.allocB = alloc1 - alloc0
	after, err := statsz(hc, base)
	if err != nil {
		return nil, err
	}
	if err := stopServer(srv); err != nil {
		return nil, err
	}

	p.lat, p.heapLive, p.tally, p.layerTimes = queries.lat, queries.heap, queries.tally, queries.layerTimes
	p.tally.merge(admin.tally)
	p.layer["serve.overhead_ms"] = median(queries.overheadMS)
	p.reloadMS = rl.rtt
	p.update(rl.u)
	p.solver(queries.work)
	p.cacheDeltas(statsOf(before.Cache), statsOf(after.Cache), 0)
	var shed, errs int64
	for mode, m := range after.Modes {
		shed += m.Shed - before.Modes[mode].Shed
		errs += m.Errors - before.Modes[mode].Errors
	}
	p.layer["serve.shed"], p.layer["serve.errors"] = float64(shed), float64(errs)
	var overlap []float64
	for i, q := range queries.spans {
		for _, r := range rl.spans {
			if q.overlaps(r) {
				overlap = append(overlap, queries.lat[i])
				break
			}
		}
	}
	d := summarize(overlap)
	p.layer["serve.reload_overlap_p99_ms"], p.layer["serve.reload_overlap.n"] = d.Tail, float64(d.N)

	return p, verifyLibrary(p, k0, specs, queries.answers)
}

// startServer builds the catalog and engine, prewarms the service's
// shapes, and boots the server on a loopback port with default
// settings otherwise.
func startServer(tr *tracer) (*serve.Server, error) {
	var k *kb.KB
	var eng *netarch.Engine
	if err := setupLibrary(tr, &k, &eng, seedKB, servePrewarm); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Engine: eng, Addr: "127.0.0.1:0", Prewarm: servePrewarm(k)})
	if err != nil {
		return nil, err
	}
	err = spanned(tr, "serve.ready", func() error {
		if err := srv.Start(); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		return srv.WaitReady(ctx)
	})
	return srv, err
}

func stopServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func statsz(hc *http.Client, base string) (*serve.StatsResponse, error) {
	resp, err := hc.Get(base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return &st, nil
}

func statsOf(c serve.CacheStatsJSON) netarch.CacheStats {
	return netarch.CacheStats{
		Size: c.Size, Capacity: c.Capacity, Hits: c.Hits, Misses: c.Misses, DiskHits: c.DiskHits,
		PoolHits: c.PoolHits, PoolMisses: c.PoolMisses,
		SliceComputed: c.SliceComputed, SliceHits: c.SliceHits,
		SliceSKUsIn: c.SliceSKUsIn, SliceSKUsKept: c.SliceSKUsKept,
	}
}

// post sends one JSON request and returns the status and body.
func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// serveMode maps a spec's op to its endpoint and to the layer whose time
// the response's spent.wall_ms reports.
var serveLayer = map[string]string{
	"synth": "core.synth", "explain": "core.explain", "optimize": "maxsat.optimize",
}

func scenarioJSON(sc netarch.Scenario) serve.ScenarioJSON {
	out := serve.ScenarioJSON{
		Context: sc.Context, NumServers: sc.NumServers, NumSwitches: sc.NumSwitches,
		Workloads: sc.Workloads, PinnedSystems: sc.PinnedSystems, ForbiddenSystems: sc.ForbiddenSystems,
		MaxCostUSD: sc.MaxCostUSD,
	}
	for _, p := range sc.Require {
		out.Require = append(out.Require, string(p))
	}
	if len(sc.AllowedHardware) > 0 {
		out.AllowedHardware = map[string][]string{}
		for kind, names := range sc.AllowedHardware {
			out.AllowedHardware[string(kind)] = names
		}
	}
	return out
}

func designOf(d *serve.DesignOut) *netarch.Design {
	if d == nil {
		return nil
	}
	out := &netarch.Design{Systems: d.Systems, Metrics: d.Metrics, Hardware: map[kb.HardwareKind]string{}}
	for kind, name := range d.Hardware {
		out.Hardware[kb.HardwareKind(kind)] = name
	}
	return out
}

func explained(ex *serve.ExplanationOut) bool {
	return ex != nil && len(ex.Conflicts) > 0 && !ex.Approximate
}

// serveQuery sends one question to the service and records the answer.
func serveQuery(ss *session, hc *http.Client, base string, i int, q querySpec) {
	req := serve.QueryRequest{Scenario: scenarioJSON(q.Scenario)}
	switch q.Op {
	case "whatif":
		req.Delta = &serve.DeltaJSON{Context: map[string]bool{q.Flip: !q.Scenario.Context[q.Flip]}}
	case "optimize":
		req.Objectives = []string{q.Objective}
	}
	body, err := json.Marshal(req)
	if err != nil {
		ss.tally.add(outcomeError)
		return
	}
	ss.query(func(root int) outcome {
		var status int
		var raw []byte
		t0 := time.Now()
		ss.call("serve."+q.Op, root, func() { status, raw, err = post(hc, base+"/v1/"+q.Op, body) })
		rtt := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return outcomeError
		}
		var resp serve.QueryResponse
		if status == http.StatusOK {
			if err := json.Unmarshal(raw, &resp); err != nil {
				return outcomeError
			}
		}
		if o := classifyHTTP(status, resp.Degraded); o != outcomeOK {
			return o
		}
		ss.overheadMS = append(ss.overheadMS, rtt-resp.Spent.WallMS)
		if l, ok := serveLayer[q.Op]; ok {
			ss.layerTimes[l] = append(ss.layerTimes[l], resp.Spent.WallMS)
		}
		ss.work.add(netarch.BudgetSpent{Conflicts: resp.Spent.Conflicts, Decisions: resp.Spent.Decisions})
		a := answer{Spec: i, Op: q.Op, Feasible: resp.Verdict == "FEASIBLE", Design: designOf(resp.Design)}
		switch q.Op {
		case "explain":
			a.Explained = explained(resp.Explanation)
		case "whatif":
			if resp.Before == nil || resp.After == nil {
				return outcomeError
			}
			a.Feasible, a.Design = resp.Before.Verdict == "FEASIBLE", designOf(resp.Before.Design)
			a.FlipFeasible, a.FlipDesign = resp.After.Verdict == "FEASIBLE", designOf(resp.After.Design)
		case "optimize":
			a.Values = resp.ObjectiveValues
			ss.work.addOptimize(resp.Spent.Conflicts, resp.ObjectiveValues, resp.LowerBounds)
		}
		ss.answers = append(ss.answers, a)
		return outcomeOK
	})
}

// reloader serializes the clients' reloads so each one is a one-rule
// edit of the KB the service holds: even reloads add the next edit
// rule, odd reloads remove it again.
type reloader struct {
	mu    sync.Mutex
	n     int
	base  []byte
	with  [][]byte
	rtt   []float64
	spans []interval
	u     updates
}

func newReloader(k *kb.KB, rules []kb.Rule) (*reloader, error) {
	base, err := json.Marshal(k)
	if err != nil {
		return nil, err
	}
	r := &reloader{base: base}
	for _, rule := range rules {
		b, err := json.Marshal(withRule(k, rule))
		if err != nil {
			return nil, err
		}
		r.with = append(r.with, b)
	}
	return r, nil
}

func (r *reloader) reload(ss *session, hc *http.Client, base string) {
	body := r.base
	if r.n%2 == 0 {
		body = r.with[(r.n/2)%len(r.with)]
	}
	r.n++
	ss.req++
	id := ss.tr.begin("serve.reload", -1, ss.reqBase+ss.req)
	t0 := time.Now()
	status, raw, err := post(hc, base+"/v1/admin/reload", body)
	t1 := time.Now()
	ss.tr.end(id)
	o := outcomeError
	if err == nil {
		o = classifyHTTP(status, false)
	}
	var resp serve.ReloadResponse
	if o == outcomeOK && json.Unmarshal(raw, &resp) != nil {
		o = outcomeError
	}
	ss.tally.add(o)
	if o != outcomeOK {
		return
	}
	r.rtt = append(r.rtt, float64(t1.Sub(t0).Nanoseconds())/1e6)
	r.spans = append(r.spans, interval{t0, t1})
	r.u.add(resp.ShardsReused, resp.ShardsConverted, resp.BasesUpdated)
}
