package main

import (
	"errors"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"

	"netarch"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: the tail is the highest percentile (at most p99) that still
// has this many samples beyond it, so a short run reports a lower but
// honest percentile instead of its maximum.
const minBeyond = 10

// dist summarizes one latency sample set: the median, the tail value and
// the percentile it stands for, and the sample count.
type dist struct {
	P50, Tail, TailPct float64
	N                  int
}

// summarize computes the median and tail of xs (any order; xs is
// sorted in place).
func summarize(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	sort.Float64s(xs)
	d := dist{N: n}
	if n%2 == 1 {
		d.P50 = xs[n/2]
	} else {
		d.P50 = (xs[n/2-1] + xs[n/2]) / 2
	}
	idx, pct := tailIndex(n)
	d.Tail, d.TailPct = xs[idx], pct
	return d
}

// tailIndex returns the index into n ascending samples of the highest
// nearest-rank percentile at most 99 that leaves at least minBeyond
// samples strictly above it, and that percentile. With n <= minBeyond
// no percentile qualifies and the maximum (p100) is returned.
func tailIndex(n int) (int, float64) {
	if n <= minBeyond {
		return n - 1, 100
	}
	// Nearest rank of p99 is ceil(0.99n); the sample at rank r has n-r
	// samples beyond it.
	if r := int(math.Ceil(0.99 * float64(n))); n-r >= minBeyond {
		return r - 1, 99
	}
	r := n - minBeyond
	return r - 1, 100 * float64(r) / float64(n)
}

// ratio is a useful-outcome ratio reported with its base, so a reader
// can tell 1 of 1 from 1000 of 1000.
type ratio struct {
	Num, Base float64
}

// Value is Num/Base, or 0 when nothing was attempted.
func (r ratio) Value() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Num / r.Base
}

// outcome classifies one attempted operation.
type outcome int

const (
	outcomeOK outcome = iota
	// outcomeError: the call returned an error, or the service answered
	// with a non-200 status other than a shed.
	outcomeError
	// outcomeBudget: a resource budget tripped before an answer (a
	// typed core.ErrResourceExhausted, or a degraded service answer).
	outcomeBudget
	// outcomeShed: the service refused the request (429 or 503).
	outcomeShed
	// outcomeWrong: the answer failed an answer check.
	outcomeWrong
)

var outcomeNames = [...]string{"ok", "error", "budget", "shed", "wrong"}

func (o outcome) String() string { return outcomeNames[o] }

// tally counts attempted operations and why each failed one failed.
// Every failure kind counts against the same attempted total.
type tally struct {
	Attempted int
	ByOutcome [len(outcomeNames)]int
}

func (t *tally) add(o outcome) {
	t.Attempted++
	t.ByOutcome[o]++
}

// wrong reclassifies an operation counted as ok whose answer a later
// check rejected.
func (t *tally) wrong() {
	t.ByOutcome[outcomeOK]--
	t.ByOutcome[outcomeWrong]++
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	for i, n := range o.ByOutcome {
		t.ByOutcome[i] += n
	}
}

// Failed counts every operation that did not end in a checked answer.
func (t *tally) Failed() int { return t.Attempted - t.ByOutcome[outcomeOK] }

// errorRate is failed operations over attempted ones.
func (t *tally) errorRate() ratio {
	return ratio{Num: float64(t.Failed()), Base: float64(t.Attempted)}
}

// classifyErr maps a library call's error to an outcome.
func classifyErr(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case netarch.IsResourceExhausted(err):
		return outcomeBudget
	default:
		return outcomeError
	}
}

// classifyHTTP maps a service response to an outcome: sheds (429, 503),
// budget trips (504 or a degraded 200) and every other non-200 are
// failures.
func classifyHTTP(status int, degraded bool) outcome {
	switch {
	case status == http.StatusOK && degraded:
		return outcomeBudget
	case status == http.StatusOK:
		return outcomeOK
	case status == http.StatusTooManyRequests, status == http.StatusServiceUnavailable:
		return outcomeShed
	case status == http.StatusGatewayTimeout:
		return outcomeBudget
	default:
		return outcomeError
	}
}

var errNoSample = errors.New("runtime metric unavailable")

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() (uint64, error) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0, errNoSample
	}
	return s[0].Value.Uint64(), nil
}

// heapGauge reads the live heap as of the most recent collection —
// what caches and retained structures hold — without forcing one.
type heapGauge struct{ s []metrics.Sample }

func newHeapGauge() heapGauge {
	return heapGauge{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (g heapGauge) read() (float64, error) {
	metrics.Read(g.s)
	if g.s[0].Value.Kind() != metrics.KindUint64 {
		return 0, errNoSample
	}
	return float64(g.s[0].Value.Uint64()), nil
}

func median(xs []float64) float64 {
	return summarize(append([]float64(nil), xs...)).P50
}
