package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into each layer's
// public functions. Spans live in memory and are written out once, when
// the run ends. A nil or disabled tracer records nothing, so the untraced
// run pays one branch per call site.
//
// Calls into the program are made from one goroutine at a time (the
// client loop, or the simulated kernel thread it runs on), so the span
// stack needs no lock.
type tracer struct {
	on    bool
	stack []*openSpan
	stats map[string]*spanStats
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration // time covered by this span's direct children
}

// spanStats aggregates every span of one name.
type spanStats struct {
	Parent  string    `json:"parent"` // name of the enclosing span, "" at top level
	Count   int       `json:"count"`
	TotalMS float64   `json:"total_ms"`
	SelfMS  float64   `json:"self_ms"` // total minus the time child spans cover
	durUS   []float64 // per-span host µs, for percentiles
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, stats: make(map[string]*spanStats)}
}

// begin opens a span named after the public function it wraps; the
// returned func closes it.
func (t *tracer) begin(name string) func() {
	if t == nil || !t.on {
		return func() {}
	}
	s := &openSpan{name: name, start: time.Now()}
	t.stack = append(t.stack, s)
	return func() { t.end(s) }
}

func (t *tracer) end(s *openSpan) {
	d := time.Since(s.start)
	t.stack = t.stack[:len(t.stack)-1]
	parent := ""
	if n := len(t.stack); n > 0 {
		p := t.stack[n-1]
		p.child += d
		parent = p.name
	}
	st := t.stats[s.name]
	if st == nil {
		st = &spanStats{Parent: parent}
		t.stats[s.name] = st
	}
	st.Count++
	st.TotalMS += float64(d) / 1e6
	st.SelfMS += float64(d-s.child) / 1e6
	st.durUS = append(st.durUS, float64(d)/1e3)
}

// quantileUS returns the q-quantile of a span's host duration in µs, or
// -1 when no span of that name was recorded.
func (t *tracer) quantileUS(name string, q float64) float64 {
	st := t.stats[name]
	if st == nil || len(st.durUS) == 0 {
		return -1
	}
	return quantile(st.durUS, q)
}

// write stores the span summary as JSON at path.
func (t *tracer) write(path string) error {
	type row struct {
		Name string `json:"name"`
		*spanStats
		P50US float64 `json:"p50_us"`
		P99US float64 `json:"p99_us"`
	}
	rows := make([]row, 0, len(t.stats))
	for name, st := range t.stats {
		rows = append(rows, row{name, st, quantile(st.durUS, 0.5), quantile(st.durUS, 0.99)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return writeJSON(path, rows)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the method of numpy's default and of Python's
// statistics.quantiles "inclusive"). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
