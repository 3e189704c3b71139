package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one request share Req; Parent indexes the span that
// made the call (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end do nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf names the layer a span belongs to: the module prefix of its
// name ("core.synth" → "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// spanSummary is the reduced trace: each span name's durations (ms) and
// each layer's total self time (ms) within queries — a span's duration
// minus the part of it that its children cover. Spans of request 0
// (set-up, and KB edits outside the timed region) have no self time.
type spanSummary struct {
	Durations map[string][]float64
	SelfMS    map[string]float64
	Spans     int
}

func reduceSpans(spans []span) (spanSummary, error) {
	sum := spanSummary{Durations: map[string][]float64{}, SelfMS: map[string]float64{}, Spans: len(spans)}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return sum, fmt.Errorf("span %d (%s) never ended", i, s.Name)
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		dur := s.End - s.Start
		sum.Durations[s.Name] = append(sum.Durations[s.Name], float64(dur)/1e6)
		if s.Req != 0 {
			sum.SelfMS[layerOf(s.Name)] += float64(dur-covered(spans, s, children[i])) / 1e6
		}
	}
	return sum, nil
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(spans []span, parent span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
