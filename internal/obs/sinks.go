package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sync"
	"time"
)

// Multi fans events out to every non-nil sink. It returns nil when no
// sink remains (so "no sink configured" keeps the fast path), and the
// sink itself when exactly one remains.
func Multi(sinks ...Sink) Sink {
	out := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

type multi []Sink

func (m multi) Span(s Span) {
	for _, sink := range m {
		sink.Span(s)
	}
}

func (m multi) Progress(p Progress) {
	for _, sink := range m {
		sink.Progress(p)
	}
}

func (m multi) Note(n Note) {
	for _, sink := range m {
		sink.Note(n)
	}
}

// Gauge forwards to every member sink that supports gauges, so a gauge
// emitted into a fan-out reaches the expvar publisher (and the test
// Recorder) without the emitter knowing the sink composition.
func (m multi) Gauge(name string, value int64) {
	for _, sink := range m {
		if gs, ok := sink.(GaugeSink); ok {
			gs.Gauge(name, value)
		}
	}
}

// ProgressSink adapts a progress callback to a Sink that drops spans.
func ProgressSink(f func(Progress)) Sink {
	if f == nil {
		return nil
	}
	return progressSink(f)
}

type progressSink func(Progress)

func (f progressSink) Span(Span)           {}
func (f progressSink) Progress(p Progress) { f(p) }
func (f progressSink) Note(Note)           {}

// NewTextSink returns a sink writing one human-readable line per event
// to w. Write errors are dropped: observability output never fails a
// run.
func NewTextSink(w io.Writer) Sink { return &writerSink{w: w} }

// NewJSONSink returns a sink writing one JSON object per event to w
// ({"event":"span",...} / {"event":"progress",...}; durations in
// nanoseconds). Write errors are dropped: observability output never
// fails a run.
func NewJSONSink(w io.Writer) Sink { return &writerSink{w: w, json: true} }

// writerSink serializes event formatting and writing with a mutex so
// lines from concurrent emitters never interleave.
type writerSink struct {
	mu   sync.Mutex
	w    io.Writer
	json bool
}

// jsonEvent is the wire shape of all event kinds; zero-valued fields of
// the other kinds are omitted.
type jsonEvent struct {
	Event string `json:"event"`
	Phase string `json:"phase,omitempty"`
	Start string `json:"start,omitempty"`
	// Duration (spans) and Elapsed (progress) are nanoseconds.
	Duration int64  `json:"duration,omitempty"`
	Elapsed  int64  `json:"elapsed,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Counts
	Final bool `json:"final,omitempty"`
}

func (s *writerSink) Span(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.json {
		s.encode(jsonEvent{
			Event:    "span",
			Phase:    sp.Phase,
			Start:    sp.Start.Format(time.RFC3339Nano),
			Duration: int64(sp.Duration),
			Counts:   sp.Counts,
		})
		return
	}
	fmt.Fprintf(s.w, "span phase=%s dur=%s %s\n",
		sp.Phase, sp.Duration.Round(time.Microsecond), FormatCounts(sp.Counts))
}

func (s *writerSink) Progress(p Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.json {
		s.encode(jsonEvent{
			Event:   "progress",
			Elapsed: int64(p.Elapsed),
			Counts:  p.Counts,
			Final:   p.Final,
		})
		return
	}
	final := ""
	if p.Final {
		final = " final"
	}
	fmt.Fprintf(s.w, "progress elapsed=%s %s%s\n",
		p.Elapsed.Round(time.Millisecond), FormatCounts(p.Counts), final)
}

func (s *writerSink) Note(n Note) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.json {
		s.encode(jsonEvent{
			Event:  "note",
			Kind:   n.Kind,
			Detail: n.Detail,
			Counts: n.Counts,
		})
		return
	}
	fmt.Fprintf(s.w, "note kind=%s detail=%q %s\n", n.Kind, n.Detail, FormatCounts(n.Counts))
}

func (s *writerSink) encode(e jsonEvent) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	s.w.Write(append(b, '\n'))
}

// DefaultExpvarName is the expvar map the expvar sink publishes under
// when no name is given.
const DefaultExpvarName = "fim"

var (
	expvarMu   sync.Mutex
	expvarMaps = map[string]*expvar.Map{}
)

// NewExpvarSink returns a sink publishing run counters as process-wide
// expvar metrics under the map named name ("" selects
// DefaultExpvarName), for /debug/vars style endpoints. Same-name sinks
// share one map; the progress counters, each under its Counts JSON key,
// reflect the latest snapshot of the most recent run, span metrics
// (span_<phase>_count, span_<phase>_ms) and runs accumulate across runs.
func NewExpvarSink(name string) Sink {
	if name == "" {
		name = DefaultExpvarName
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	m, ok := expvarMaps[name]
	if !ok {
		m = expvar.NewMap(name)
		expvarMaps[name] = m
	}
	return &expvarSink{m: m}
}

type expvarSink struct {
	mu sync.Mutex
	m  *expvar.Map
}

func (s *expvarSink) setInt(key string, v int64) {
	if iv, ok := s.m.Get(key).(*expvar.Int); ok {
		iv.Set(v)
		return
	}
	iv := new(expvar.Int)
	iv.Set(v)
	s.m.Set(key, iv)
}

func (s *expvarSink) Span(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Add("span_"+sp.Phase+"_count", 1)
	s.m.Add("span_"+sp.Phase+"_ms", sp.Duration.Milliseconds())
}

func (s *expvarSink) Progress(p Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eachCount(p.Counts, s.setInt)
	s.setInt("elapsed_ms", p.Elapsed.Milliseconds())
	s.m.Add("progress_events", 1)
	if p.Final {
		s.m.Add("runs", 1)
	}
}

func (s *expvarSink) Note(n Note) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Accumulate per-kind event counts (retries, degradations, repairs)
	// across runs, like the span metrics.
	s.m.Add("note_"+n.Kind+"_count", 1)
}

// Gauge publishes a point-in-time value under its own name, overwriting
// the previous one (queue depth, breaker state, in-flight weight).
func (s *expvarSink) Gauge(name string, value int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setInt(name, value)
}

// Recorder is an in-memory sink for tests: it stores every event in
// arrival order under a mutex.
type Recorder struct {
	mu       sync.Mutex
	spans    []Span
	progress []Progress
	notes    []Note
	gauges   map[string]int64
}

func (r *Recorder) Span(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

func (r *Recorder) Progress(p Progress) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progress = append(r.progress, p)
}

// Spans returns a copy of the recorded spans in arrival order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Snapshots returns a copy of the recorded progress events in arrival
// order.
func (r *Recorder) Snapshots() []Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Progress(nil), r.progress...)
}

func (r *Recorder) Note(n Note) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, n)
}

// Notes returns a copy of the recorded self-healing events in arrival
// order.
func (r *Recorder) Notes() []Note {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Note(nil), r.notes...)
}

// Gauge records the latest value published under name.
func (r *Recorder) Gauge(name string, value int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]int64{}
	}
	r.gauges[name] = value
}

// Gauges returns a copy of the latest gauge values by name.
func (r *Recorder) Gauges() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}
