package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request or pass share
// req; parent is the index of the enclosing span, or -1 for a root.
type span struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Req    int64   `json:"req"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin returns -1 and end does nothing, so the measured
// code is identical in both modes except for the spans themselves.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(layer, name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Req: req, Parent: parent,
		Start: time.Since(t.t0).Seconds(),
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
}

// record adds a finished root span whose ends were stamped elsewhere,
// such as a job's submit time and its server-stamped completion.
func (t *tracer) record(layer, name string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Req: req, Parent: -1,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfByLayer sums, per layer, each span's duration minus the time its
// child spans cover. Children of one span never overlap: the benchmark
// issues them one after another.
func (t *tracer) selfByLayer() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Layer] += s.dur() - child[i]
	}
	return self
}

// write emits at most limit spans as JSON lines.
func (t *tracer) write(w io.Writer, limit int) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if i == limit {
			break
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// percentile returns the nearest-rank pth percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// inUnit converts durations to float64s in unit (time.Millisecond, ...).
func inUnit(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// spanP50 is the median duration of the spans called name, in unit. It is
// an error for no such span to exist: every per-layer metric is measured.
func spanP50(t *tracer, name string, unit time.Duration) (float64, error) {
	ds := t.durations(name)
	if len(ds) == 0 {
		return 0, fmt.Errorf("no %q spans recorded", name)
	}
	return median(inUnit(ds, unit)), nil
}

// fmtList formats a short list of measurements for a note line.
func fmtList(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}
