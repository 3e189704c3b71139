package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"netarch"
	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// Input generation. Everything a run feeds the program — scenarios,
// query mixes and KB edits — is generated here, and the program sees only
// these generated values.
//
// Each workload draws its queries from a population of query specs with
// a skewed (Zipf) popularity: a few questions are asked over and over, a
// long tail rarely. The populations come from fixed generator seeds, so
// every run measures the same distribution of questions; the run's seed
// draws the sequence of questions (and reloads) from it, and the KB
// edits.

// ctxAtoms are environment atoms a query may pin. cxl_pooling is left
// out on purpose: it changes the compiled base, not just the query.
var ctxAtoms = []string{
	catalog.CtxDeadlineTight, catalog.CtxWanDCMix, catalog.CtxAppModifiable,
	catalog.CtxFloodingOn, catalog.CtxPFCOn, catalog.CtxScavenger,
	catalog.CtxDeepQueues, catalog.CtxLosslessNeeded, catalog.CtxVirtFeatures,
	catalog.CtxEdgeSite, catalog.CtxMultiTenant, catalog.CtxTCPEnabled,
}

// conflictPairs are context pins the catalog's rules forbid together, so
// an explain query has something to explain.
var conflictPairs = []map[string]bool{
	{catalog.CtxPFCOn: true, catalog.CtxFloodingOn: true},
	{catalog.CtxLosslessNeeded: true, catalog.CtxPFCOn: false},
	{catalog.CtxPonyEnabled: true, catalog.CtxAppModifiable: false},
}

var requirable = []kb.Property{
	catalog.PropCongestionControl, catalog.PropLowLatencyStack, catalog.PropHighTputStack,
	catalog.PropCaptureDelays, catalog.PropQueueLengths, catalog.PropFlowTelemetry,
	catalog.PropPacketFilter, catalog.PropStatefulFW, catalog.PropNetVirt,
	catalog.PropLoadBalancing, catalog.PropReliableTransport, catalog.PropLowLatTransport,
	catalog.PropTailLatency, catalog.PropBwAllocation,
}

// querySpec is one question an architect or service client asks.
type querySpec struct {
	// Op is synth, whatif, optimize or enumerate (library), or synth,
	// whatif, explain or optimize (service).
	Op       string
	Scenario netarch.Scenario
	// Flip is the context atom a what-if's second synth flips.
	Flip string
	// Objective names the optimize objective ("cores", "cost", "power").
	Objective string
}

// seedKB is the seed-scale knowledge base: the §2.3 case study plus the
// two workloads the §5.1 queries add.
func seedKB() *kb.KB {
	k := catalog.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	return k
}

// seedShapes are the seed-scale scenario shapes (workload set × fleet
// size), most popular first.
var seedShapes = []netarch.Scenario{
	{Workloads: []string{"inference_app"}},
	{Workloads: []string{"batch_analytics"}},
	{Workloads: []string{"inference_app", "batch_analytics"}},
	{Workloads: []string{"storage_backend"}},
	{Workloads: []string{"inference_app"}, NumServers: 64},
	{Workloads: []string{"inference_app", "storage_backend"}},
	{Workloads: []string{"batch_analytics", "storage_backend"}, NumServers: 96},
	{Workloads: []string{"inference_app", "batch_analytics", "storage_backend"}, NumServers: 128},
}

// interactivePrewarm is how many of the most popular shapes the
// interactive session compiles during set-up.
const interactivePrewarm = 3

// opShare is one kind of request in a workload's mix: how many of each
// cycle of requests ask it, and how many distinct specs of it the
// population holds.
type opShare struct {
	op       string
	perCycle int
	specs    int
}

// interactiveMix: half synth (each followed by a check or an explain),
// then what-ifs, optimizations and enumerations.
var interactiveMix = []opShare{{"synth", 10, 14}, {"whatif", 4, 6}, {"optimize", 3, 6}, {"enumerate", 3, 6}}

// serveMix is the question client's mix; reloads come from a second,
// admin client.
var serveMix = []opShare{{"synth", 10, 12}, {"whatif", 5, 8}, {"explain", 4, 6}, {"optimize", 5, 6}}

// seedSkew and seedTop shape question popularity on the seed-scale
// workloads (see stream): the most popular spec of an op is dealt
// seedTop times per deck, the k-th seedTop/k^seedSkew times.
const seedSkew, seedTop = 1.1, 6.0

// churnMix: synthesis over the whole 50k population; a share of draws
// becomes a check of an earlier answer (churnCheckShare).
var churnMix = []opShare{{"synth", 1, churnPopulation}}

// systemNames lists the KB's systems in a stable order.
func systemNames(k *kb.KB) []string {
	out := make([]string, len(k.Systems))
	for i := range k.Systems {
		out[i] = k.Systems[i].Name
	}
	sort.Strings(out)
	return out
}

// queryContext draws 0-3 context pins; a what-if also gets an atom to
// flip that the pins leave alone.
func queryContext(r *rand.Rand) (map[string]bool, string) {
	perm := r.Perm(len(ctxAtoms))
	n := r.Intn(4)
	var ctx map[string]bool
	if n > 0 {
		ctx = make(map[string]bool, n)
		for _, i := range perm[:n] {
			ctx[ctxAtoms[i]] = r.Intn(3) == 0
		}
	}
	return ctx, ctxAtoms[perm[n]]
}

// querySide fills a scenario's query-side fields: context pins, extra
// requirements and system pins.
func querySide(r *rand.Rand, sc *netarch.Scenario, systems []string) string {
	ctx, flip := queryContext(r)
	sc.Context = ctx
	if r.Float64() < 0.4 {
		for _, i := range r.Perm(len(requirable))[:1+r.Intn(2)] {
			sc.Require = append(sc.Require, requirable[i])
		}
	}
	switch v := r.Float64(); {
	case v < 0.1:
		sc.PinnedSystems = []string{systems[r.Intn(len(systems))]}
	case v < 0.2:
		sc.ForbiddenSystems = []string{systems[r.Intn(len(systems))]}
	}
	return flip
}

// shapeOf copies a shape so specs never share slices.
func shapeOf(s netarch.Scenario) netarch.Scenario {
	return netarch.Scenario{
		Workloads:  append([]string(nil), s.Workloads...),
		NumServers: s.NumServers,
	}
}

// zipfIndex draws from a Zipf-skewed distribution over n ranks.
func zipfIndex(r *rand.Rand, s float64, n int) int {
	return int(rand.NewZipf(r, s, 1, uint64(n-1)).Uint64())
}

// populationSeed fixes the seed-scale question populations.
const populationSeed = 2024

// interactiveInputs generates the interactive session's questions,
// grouped by op in interactiveMix order, most popular first.
func interactiveInputs(k *kb.KB) []querySpec {
	r := rand.New(rand.NewSource(populationSeed))
	systems := systemNames(k)
	var specs []querySpec
	for _, m := range interactiveMix {
		for i := 0; i < m.specs; i++ {
			q := querySpec{Op: m.op, Scenario: shapeOf(seedShapes[zipfIndex(r, 1.3, len(seedShapes))])}
			q.Flip = querySide(r, &q.Scenario, systems)
			if q.Op == "optimize" {
				q.Objective = "cores"
			}
			specs = append(specs, q)
		}
	}
	return specs
}

// serveShapes are the shapes the service prewarms: the four most popular
// seed shapes, plus the same workloads over an SKU shortlist for the
// optimize queries.
const serveShapes = 4

// shortlist restricts every hardware kind to a fixed subset of the
// catalog: the SKUs an architect shortlisted before asking for the
// cheapest or coolest fleet. It keeps one MaxSAT descent in the
// hundreds of milliseconds instead of seconds.
func shortlist(k *kb.KB) map[kb.HardwareKind][]string {
	out := map[kb.HardwareKind][]string{}
	for _, kind := range []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer} {
		hws := k.HardwareByKind(kind)
		for i := 0; i < len(hws); i += 3 {
			out[kind] = append(out[kind], hws[i].Name)
		}
	}
	return out
}

// serveInputs generates the service clients' questions, grouped by op
// in serveMix order, most popular first.
func serveInputs(k *kb.KB) []querySpec {
	r := rand.New(rand.NewSource(populationSeed + 1))
	systems := systemNames(k)
	sl := shortlist(k)
	var specs []querySpec
	for _, m := range serveMix {
		for i := 0; i < m.specs; i++ {
			q := querySpec{Op: m.op, Scenario: shapeOf(seedShapes[r.Intn(serveShapes)])}
			if q.Op == "optimize" {
				q.Objective = []string{"cost", "power"}[i%2]
				q.Scenario = shapeOf(seedShapes[r.Intn(2)])
				q.Scenario.AllowedHardware = sl
			}
			q.Flip = querySide(r, &q.Scenario, systems)
			if q.Op == "explain" {
				if q.Scenario.Context == nil {
					q.Scenario.Context = map[string]bool{}
				}
				for a, v := range conflictPairs[r.Intn(len(conflictPairs))] {
					q.Scenario.Context[a] = v
				}
			}
			specs = append(specs, q)
		}
	}
	return specs
}

// servePrewarm lists the shapes the service compiles before it reports
// ready.
func servePrewarm(k *kb.KB) []netarch.Scenario {
	out := make([]netarch.Scenario, 0, serveShapes+2)
	for _, s := range seedShapes[:serveShapes] {
		out = append(out, shapeOf(s))
	}
	for _, s := range seedShapes[:2] {
		sc := shapeOf(s)
		sc.AllowedHardware = shortlist(k)
		out = append(out, sc)
	}
	return out
}

// churnPopulation is the number of distinct scenarios on the 50k
// catalog: eight times the engine's default cache capacity of 32 bases.
const churnPopulation = 256

// churnPopulationSeed fixes the 50k scenario population, so one
// committed expected-answers file covers every run seed.
const churnPopulationSeed = 50000

// churnInputs generates the 50k-catalog scenario population: workload
// subsets × fleet sizes × switch shortlists, each with its own
// query-side requirement (on the large catalog, requirements change the
// relevance slice and so the compiled base).
func churnInputs(k *kb.KB) []netarch.Scenario {
	r := rand.New(rand.NewSource(churnPopulationSeed))
	switches := k.HardwareByKind(kb.KindSwitch)
	fleets := []int{32, 48, 64, 96}
	out := make([]netarch.Scenario, churnPopulation)
	for i := range out {
		sc := netarch.Scenario{NumServers: fleets[r.Intn(len(fleets))]}
		for _, j := range r.Perm(len(k.Workloads))[:1+r.Intn(2)] {
			sc.Workloads = append(sc.Workloads, k.Workloads[j].Name)
		}
		if r.Float64() < 0.25 {
			var names []string
			for _, j := range r.Perm(len(switches))[:48] {
				names = append(names, switches[j].Name)
			}
			sc.AllowedHardware = map[kb.HardwareKind][]string{kb.KindSwitch: names}
		}
		if r.Float64() < 0.3 {
			sc.Require = []kb.Property{requirable[r.Intn(len(requirable))]}
		}
		out[i] = sc
	}
	return out
}

// stream deals one client's requests from shuffled decks: an op deck
// holding each op perCycle times, and per op a spec deck holding the
// k-th most popular spec round(top·k^-skew) times, at least once.
// Dealing from decks instead of drawing independently keeps each run's
// op mix and popularity close to their nominal values, so short runs
// with different seeds measure the same distribution.
type stream struct {
	r      *rand.Rand
	ops    []string
	opDeck deck
	specs  []deck
	starts []int
}

// deck deals its cards in a seeded random order, reshuffling when empty.
type deck struct{ cards, left []int }

func (d *deck) deal(r *rand.Rand) int {
	if len(d.left) == 0 {
		d.left = append(d.left, d.cards...)
		r.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	c := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return c
}

func newStream(seed int64, mix []opShare, skew, top float64) *stream {
	st := &stream{r: rand.New(rand.NewSource(seed))}
	start := 0
	for g, m := range mix {
		st.ops = append(st.ops, m.op)
		for i := 0; i < m.perCycle; i++ {
			st.opDeck.cards = append(st.opDeck.cards, g)
		}
		var d deck
		for k := 0; k < m.specs; k++ {
			n := max(1, int(math.Round(top*math.Pow(float64(k+1), -skew))))
			for i := 0; i < n; i++ {
				d.cards = append(d.cards, start+k)
			}
		}
		st.specs = append(st.specs, d)
		st.starts = append(st.starts, start)
		start += m.specs
	}
	return st
}

// next deals the next request: its op and the index of its spec in the
// population (-1 for ops without specs).
func (st *stream) next() (string, int) {
	g := st.opDeck.deal(st.r)
	if len(st.specs[g].cards) == 0 {
		return st.ops[g], -1
	}
	return st.ops[g], st.specs[g].deal(st.r)
}

// chance draws a Bernoulli trial from the stream's generator.
func (st *stream) chance(p float64) bool { return st.r.Float64() < p }

// edits generates inert one-rule KB edits: each rule relates fresh
// context atoms no other fact mentions, so it is always satisfiable and
// never changes a verdict or optimum, yet every compiled base must be
// revalidated against it.
func edits(seed int64, n int) []kb.Rule {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]kb.Rule, n)
	for i := range out {
		atom := func() kb.Expr { return kb.CtxAtom(fmt.Sprintf("edit_probe_%d_%d", i, r.Intn(8))) }
		out[i] = kb.Rule{
			Name: fmt.Sprintf("bench_edit_%d", i),
			Expr: kb.Implies(kb.And(atom(), atom()), kb.Or(atom(), kb.Not(atom()))),
			Note: "benchmark edit: relates fresh atoms only",
		}
	}
	return out
}

// withRule returns a copy of k with one extra rule.
func withRule(k *kb.KB, r kb.Rule) *kb.KB {
	c := *k
	c.Rules = append(append([]kb.Rule(nil), k.Rules...), r)
	return &c
}
