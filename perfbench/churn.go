package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"netarch"
	"netarch/internal/kb"
)

// churnSKUs is the catalog size of the churn workload.
const churnSKUs = 50000

// churnSetupReps is how many times the churn pass builds its catalog
// and engine; each build holds a 50k-SKU catalog in memory.
const churnSetupReps = 5

// churnSkew and churnTop shape scenario popularity on the 50k catalog:
// the most popular scenario is dealt churnTop times per deck, the k-th
// churnTop/k^churnSkew times, and the long tail once. Most draws are of
// a scenario not compiled in a while, so most queries pay for a slice
// and a compile, as a one-shot CLI run does.
const churnSkew, churnTop = 1.0, 20.0

// churnReloads is how many one-rule KB edits the churn pass applies
// after its timed region. One edit revalidates every cached 50k slice,
// which takes seconds.
const churnReloads = 1

// churnCheckShare is the share of churn queries that check a design the
// same scenario returned earlier, instead of synthesizing.
const churnCheckShare = 0.15

// churnExpectedJSON holds the expected synth verdict of every scenario
// in the churn population. Regenerate it after a deliberate change to
// the population or the catalog:
//
//	go run . -write-churn-expected churn_expected.json
//
//go:embed churn_expected.json
var churnExpectedJSON []byte

type churnExpected struct {
	// Population is the SHA-256 of the population the verdicts belong
	// to; a mismatch means the file is stale.
	Population string `json:"population"`
	Feasible   []bool `json:"feasible"`
}

func populationHash(pop []netarch.Scenario) (string, error) {
	b, err := json.Marshal(pop)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// runChurn is the large-catalog, one-shot path: scenario shapes churn
// through the 32-base cache, so most of the work is relevance slicing
// and compilation, with little search.
func runChurn(cfg runConfig) (*phase, error) {
	var want churnExpected
	if err := json.Unmarshal(churnExpectedJSON, &want); err != nil {
		return nil, fmt.Errorf("churn expected answers: %w", err)
	}
	p := newPhase()
	var eng *netarch.Engine
	var k *kb.KB
	for i := 0; i < churnSetupReps; i++ {
		eng, k = nil, nil
		s, err := timedSetup(func() error {
			return setupLibrary(cfg.tr, &k, &eng, func() *kb.KB { return netarch.ScaledCatalog(churnSKUs) }, nil)
		})
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, s)
	}
	pop := churnInputs(k)
	if h, err := populationHash(pop); err != nil || h != want.Population || len(want.Feasible) != len(pop) {
		return nil, fmt.Errorf("churn expected answers do not match the population (regenerate with -write-churn-expected)")
	}

	ss := newSession(cfg.tr, 0)
	st := newStream(cfg.seed, churnMix, churnSkew, churnTop)
	designs := make([]*netarch.Design, len(pop))
	before := eng.CacheStats()
	alloc0, err := heapAllocBytes()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for deadline := start.Add(cfg.seconds); time.Now().Before(deadline); {
		_, i := st.next()
		check := st.chance(churnCheckShare) && designs[i] != nil
		churnStep(eng, ss, cfg.tr != nil, i, pop[i], check, designs)
	}
	p.wall = time.Since(start)
	alloc1, _ := heapAllocBytes()
	p.allocB = alloc1 - alloc0
	p.lat, p.tally, p.heapLive = ss.lat, ss.tally, ss.heap
	p.cacheDeltas(before, eng.CacheStats(), ss.prewarmed)
	p.solver(ss.work)
	p.noServe()
	if err := libraryReloadPass(p, cfg, eng, k, churnReloads); err != nil {
		return nil, err
	}
	runtime.KeepAlive(eng)

	ev, err := newEvaluator(k)
	if err != nil {
		return nil, err
	}
	specs := make([]querySpec, len(pop))
	refs := make([]refAnswer, len(pop))
	for i, sc := range pop {
		specs[i] = querySpec{Op: "synth", Scenario: sc}
		refs[i] = refAnswer{Feasible: want.Feasible[i]}
	}
	p.markWrong(checkAnswers(ev, specs, refs, ss.answers))
	return p, nil
}

// churnStep synthesizes scenario i, or checks the design it returned
// before. On the traced pass each query first prewarms its base, so the
// slice and compile land in their own span.
func churnStep(eng *netarch.Engine, ss *session, traced bool, i int, sc netarch.Scenario, check bool, designs []*netarch.Design) {
	ss.query(func(root int) outcome {
		if check {
			d := designs[i]
			if traced {
				if o := prewarm(ss, root, eng, checkShape(sc, d)); o != outcomeOK {
					return o
				}
			}
			var rep *netarch.Report
			var err error
			ss.call("core.check", root, func() { rep, err = eng.Check(*d, sc) })
			if err != nil {
				return classifyErr(err)
			}
			ss.work.add(rep.Spent)
			ss.answers = append(ss.answers, answer{Spec: i, Op: "check", Feasible: rep.Verdict == netarch.Feasible})
			return outcomeOK
		}
		if traced {
			if o := prewarm(ss, root, eng, sc); o != outcomeOK {
				return o
			}
		}
		var rep *netarch.Report
		var err error
		ss.call("core.synth", root, func() { rep, err = eng.Synthesize(sc) })
		if err != nil {
			return classifyErr(err)
		}
		ss.work.add(rep.Spent)
		feasible := rep.Verdict == netarch.Feasible
		if feasible {
			designs[i] = rep.Design
		}
		ss.answers = append(ss.answers, answer{Spec: i, Op: "synth", Feasible: feasible, Design: rep.Design})
		return outcomeOK
	})
}

func prewarm(ss *session, root int, eng *netarch.Engine, sc netarch.Scenario) outcome {
	var err error
	ss.call("core.prewarm", root, func() { err = eng.Prewarm(sc) })
	ss.prewarmed++
	return classifyErr(err)
}

// checkShape is the scenario Engine.Check compiles for design d: the
// design's systems pinned and its hardware fixed.
func checkShape(sc netarch.Scenario, d *netarch.Design) netarch.Scenario {
	sc.PinnedSystems = append(append([]string(nil), sc.PinnedSystems...), d.Systems...)
	pinned := make(map[kb.HardwareKind]string, len(d.Hardware))
	for kind, name := range sc.PinnedHardware {
		pinned[kind] = name
	}
	for kind, name := range d.Hardware {
		pinned[kind] = name
	}
	sc.PinnedHardware = pinned
	return sc
}

// writeChurnExpected recomputes the churn expected answers with an
// uncached, single-worker engine. It slices: an unsliced compile of the
// 50k catalog takes tens of seconds per scenario, and slicing is proven
// answer-equivalent by the repository's scale differential.
func writeChurnExpected(path string) error {
	k := netarch.ScaledCatalog(churnSKUs)
	pop := churnInputs(k)
	eng, err := netarch.NewEngine(k)
	if err != nil {
		return err
	}
	eng.SetCacheCapacity(0)
	eng.SetWorkers(1)
	eng.SetSliceMode(netarch.SliceOn)
	ev, err := newEvaluator(k)
	if err != nil {
		return err
	}
	out := churnExpected{Feasible: make([]bool, len(pop))}
	if out.Population, err = populationHash(pop); err != nil {
		return err
	}
	for i, sc := range pop {
		rep, err := eng.Synthesize(sc)
		if err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
		out.Feasible[i] = rep.Verdict == netarch.Feasible
		if out.Feasible[i] {
			if probs := ev.check(rep.Design, sc); len(probs) > 0 {
				return fmt.Errorf("scenario %d: reference design fails its check: %v", i, probs)
			}
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
