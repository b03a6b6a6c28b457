package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mavscan/internal/telemetry"
)

// spanRec is one completed span: a timed call into a layer, recorded from
// the benchmark's side of the layer boundary.
type spanRec struct {
	id, parent uint64
	name       string
	start, end time.Time
}

// tracer keeps the spans, latency samples and counters of a traced run in
// memory. A nil *tracer is the untraced run: every method no-ops, so the
// workloads pass it around unconditionally.
type tracer struct {
	workload string
	base     time.Time

	mu      sync.Mutex
	seq     uint64
	spans   []spanRec
	samples map[string][]time.Duration
	counts  map[string]float64
	// hists accumulates histograms read from the program's telemetry,
	// for layers the benchmark has no call to wrap.
	hists map[string]telemetry.HistogramSnapshot
	// inflight maps a segment ordinal to the span of the fabric
	// completion call carrying it, so the coordinator's journal append
	// (made while that call is open) is parented to it.
	inflight map[int]uint64

	// kept holds the first traced iteration's spans for export; later
	// iterations only feed the aggregates.
	kept []spanRec
	self map[string]time.Duration
	its  int
	// tails notes the percentile and sample count behind each *_tail
	// metric, for the report.
	tails []tailNote
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		base:     time.Now(),
		samples:  map[string][]time.Duration{},
		counts:   map[string]float64{},
		hists:    map[string]telemetry.HistogramSnapshot{},
		inflight: map[int]uint64{},
		self:     map[string]time.Duration{},
	}
}

// span is an open span handle; the zero value (from a nil tracer) no-ops.
type span struct {
	tr     *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

func (t *tracer) start(name string, parent uint64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	return span{tr: t, id: id, parent: parent, name: name, start: time.Now()}
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	if s.tr == nil {
		return 0
	}
	return s.tr.record(s.id, s.parent, s.name, s.start, time.Now())
}

// record appends a completed span (also used to import spans the program's
// own telemetry registry recorded).
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	if id == 0 {
		t.seq++
		id = t.seq
	}
	t.spans = append(t.spans, spanRec{id: id, parent: parent, name: name, start: start, end: end})
	t.mu.Unlock()
	return end.Sub(start)
}

func (t *tracer) sample(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], d)
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// nextID reserves a span id, for spans imported from a registry.
func (t *tracer) nextID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return t.seq
}

func (t *tracer) addHist(name string, h telemetry.HistogramSnapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	acc, ok := t.hists[name]
	if !ok {
		acc = telemetry.HistogramSnapshot{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts))}
	}
	for i, c := range h.Counts {
		acc.Counts[i] += c
	}
	acc.Sum += h.Sum
	acc.Count += h.Count
	t.hists[name] = acc
}

func (t *tracer) setInflight(ordinal int, id uint64) {
	t.mu.Lock()
	if id == 0 {
		delete(t.inflight, ordinal)
	} else {
		t.inflight[ordinal] = id
	}
	t.mu.Unlock()
}

func (t *tracer) inflightFor(ordinal int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflight[ordinal]
}

// endIteration folds the iteration's spans into the per-layer self times
// and clears the span log, keeping the first iteration's spans for export.
func (t *tracer) endIteration() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for layer, d := range selfTimes(t.spans) {
		t.self[layer] += d
	}
	if t.its == 0 {
		t.kept = t.spans
	}
	t.spans = nil
	t.its++
}

// layerOf names a span's layer: the part of its name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed span durations minus the part
// of each span's interval its child spans cover.
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := map[uint64][]spanRec{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.name)] += s.end.Sub(s.start) - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent spanRec, kids []spanRec) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.start, k.end
		if lo.Before(parent.start) {
			lo = parent.start
		}
		if hi.After(parent.end) {
			hi = parent.end
		}
		if hi.After(lo) {
			iv = append(iv, [2]time.Time{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curHi) {
			if i > 0 {
				total += curHi.Sub(curLo)
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1].After(curHi) {
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}

// traceEvent is one record of Chrome's trace-event JSON, the shape the
// operations plane's /spans endpoint serves: "X" complete events with µs
// timestamps, and "M" metadata naming the lanes.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace exports the first traced iteration's spans. Roots and their
// direct children get a lane each, deeper spans share their ancestor's.
func (t *tracer) writeTrace(path string) error {
	spans := t.kept
	byID := make(map[uint64]spanRec, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	lane := func(s spanRec) uint64 {
		for s.parent != 0 {
			p, ok := byID[s.parent]
			if !ok || p.parent == 0 {
				break
			}
			s = p
		}
		return s.id
	}
	events := make([]traceEvent, 0, len(spans)+16)
	named := map[uint64]bool{}
	for _, s := range spans {
		tid := lane(s)
		if tid == s.id && !named[tid] {
			named[tid] = true
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.name}})
		}
		args := map[string]any{"workload": t.workload}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   s.start.Sub(t.base).Microseconds(),
			Dur:  s.end.Sub(s.start).Microseconds(),
			Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": t.workload, "spanCount": len(spans)},
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// tail is a latency summary: the median and the highest listed percentile
// that still has at least ten samples beyond it.
type tail struct {
	p50, tail time.Duration
	pct       float64
	n         int
}

var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// rank is the nearest-rank position (1-based) of the p-th percentile of n
// samples: the n-rank samples after it are the ones beyond it.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(r, 1)
}

// tailPercentile is the highest listed percentile with at least ten of n
// samples beyond it (the median when n is too small for any).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

func summarize(samples []time.Duration) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pct := tailPercentile(n)
	return tail{p50: s[rank(50, n)-1], tail: s[rank(pct, n)-1], pct: pct, n: n}
}

// summarizeHist is summarize for a bucketed histogram: quantiles are
// interpolated linearly inside the bucket they fall in, as Prometheus's
// histogram_quantile does.
func summarizeHist(h telemetry.HistogramSnapshot) tail {
	n := int(h.Count)
	if n == 0 {
		return tail{}
	}
	q := func(p float64) time.Duration {
		rank := p / 100 * float64(n)
		var cum float64
		for i, c := range h.Counts {
			if c == 0 || cum+float64(c) < rank {
				cum += float64(c)
				continue
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i == len(h.Bounds) {
				return secs(lo)
			}
			return secs(lo + (h.Bounds[i]-lo)*(rank-cum)/float64(c))
		}
		return secs(h.Bounds[len(h.Bounds)-1])
	}
	pct := tailPercentile(n)
	return tail{p50: q(50), tail: q(pct), pct: pct, n: n}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
