package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; they are written out
// once, when the run ends. A nil *tracer and a nil *span are valid and
// record nothing, so untraced code paths carry no tracing branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []*span
}

// span is one timed call into a layer: name, start, duration, the span
// that caused it, and a track (tid) shared by the spans of one client or
// operation.
type span struct {
	tr     *tracer
	id     int64
	parent int64 // 0 for a root span
	tid    int64
	name   string
	start  time.Time
	dur    time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root starts a span with no parent on track tid.
func (t *tracer) root(name string, tid int64) *span {
	if t == nil {
		return nil
	}
	return t.open(name, 0, tid)
}

func (t *tracer) open(name string, parent, tid int64) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &span{tr: t, id: t.next, parent: parent, tid: tid, name: name, start: time.Now()}
	t.spans = append(t.spans, s)
	return s
}

// child starts a span caused by s, on s's track.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(name, s.id, s.tid)
}

// track starts a child span on its own track, for concurrent clients.
func (s *span) track(name string, tid int64) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(name, s.id, tid)
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.tr.mu.Lock()
	s.dur = d
	s.tr.mu.Unlock()
}

// tracer returns the span's tracer (nil for a nil span).
func (s *span) tracer() *tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// snapshot copies the spans; a span still open has dur 0.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, *s)
	}
	return out
}

// durations returns the durations (ms) of the finished spans with the
// given name whose root ancestor's name is rootName ("" = any root).
func (t *tracer) durations(name, rootName string) []float64 {
	spans := t.snapshot()
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	var out []float64
	for _, s := range spans {
		if s.name != name || s.dur == 0 {
			continue
		}
		if rootName != "" {
			r := s
			for r.parent != 0 {
				p, ok := byID[r.parent]
				if !ok {
					break
				}
				r = p
			}
			if r.name != rootName {
				continue
			}
		}
		out = append(out, float64(s.dur)/float64(time.Millisecond))
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]time.Time{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Time{s.start, s.start.Add(s.dur)})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		lo, hi := s.start, s.start.Add(s.dur)
		covered := coveredDuration(kids[s.id], lo, hi)
		out[s.id] = s.dur - covered
	}
	return out
}

// coveredDuration is the length of the union of the intervals, clipped
// to [lo, hi].
func coveredDuration(iv [][2]time.Time, lo, hi time.Time) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	c := make([][2]time.Time, 0, len(iv))
	for _, x := range iv {
		if x[0].Before(lo) {
			x[0] = lo
		}
		if x[1].After(hi) {
			x[1] = hi
		}
		if x[1].After(x[0]) {
			c = append(c, x)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0].Before(c[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, x := range c {
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
	if len(c) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeTrace renders the spans as a Chrome trace-event document. Each
// event's args carry its span id, parent id and self time in µs.
func (t *tracer) chromeTrace(header machineHeader) ([]byte, error) {
	spans := t.snapshot()
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range spans {
		cat := s.name
		if i := strings.IndexByte(cat, '.'); i > 0 {
			cat = cat[:i]
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			TS: us(s.start.Sub(t.t0)), Dur: us(s.dur), PID: 1, TID: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "self_us": us(self[s.id])},
		})
	}
	return json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       header,
	})
}

// layerRow is one row of the per-layer table.
type layerRow struct {
	Layer   string
	Backend string
	MS      float64 // per example
	MACs    float64 // per example
}

func (r layerRow) gmacPerS() float64 { return r.MACs / (r.MS * 1e6) }

// writeTraceOutputs writes the traced run's Chrome trace and its
// per-layer table (one row per layer and backend, then every per-layer
// metric) under .bench_build/perfbench/out, and echoes the table to
// stderr.
func (b *bench) writeTraceOutputs(workload string, tr *tracer, rows []layerRow, m metrics) error {
	dir := filepath.Join(b.out, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d", workload, b.opts.seed)
	doc, err := tr.chromeTrace(b.machine)
	if err != nil {
		return err
	}
	tracePath := filepath.Join(dir, "trace-"+stem+".json")
	if err := os.WriteFile(tracePath, doc, 0o644); err != nil {
		return err
	}
	var sb strings.Builder
	hdr, _ := json.Marshal(b.machine)
	fmt.Fprintf(&sb, "# machine %s\n", hdr)
	fmt.Fprintf(&sb, "%-10s %-13s %14s %16s %10s\n", "layer", "backend", "ms/example", "MACs/example", "GMAC/s")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-13s %14.4f %16.0f %10.3f\n", r.Layer, r.Backend, r.MS, r.MACs, r.gmacPerS())
	}
	sb.WriteString("\n")
	writeMetrics(&sb, m)
	tablePath := filepath.Join(dir, "layers-"+stem+".txt")
	if err := os.WriteFile(tablePath, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, sb.String())
	fmt.Fprintf(os.Stderr, "perfbench: trace %s\nperfbench: table %s\n", tracePath, tablePath)
	return nil
}
