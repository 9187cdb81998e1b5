package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"io"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRunIsInert(t *testing.T) {
	var r *Run
	r.Observe()
	r.Span(PhaseMine, time.Now())
	r.Finish() // must not panic
	if got := NewRun(nil, 0, nil); got != nil {
		t.Fatalf("NewRun(nil sink) = %v, want nil", got)
	}
}

func TestRunThrottlesAndFinishes(t *testing.T) {
	var rec Recorder
	var counts Counts
	r := NewRun(&rec, time.Hour, func() Counts { return counts })

	// The first interval has not passed: no snapshot.
	counts.Ops = 1
	r.Observe()
	if n := len(rec.Snapshots()); n != 0 {
		t.Fatalf("snapshot before the interval elapsed: %d events", n)
	}

	counts.Ops = 42
	counts.Patterns = 7
	r.Finish()
	snaps := rec.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots after Finish, want 1", len(snaps))
	}
	if !snaps[0].Final {
		t.Fatalf("closing snapshot not marked Final: %+v", snaps[0])
	}
	if snaps[0].Ops != 42 || snaps[0].Patterns != 7 {
		t.Fatalf("final snapshot counts = %+v, want ops=42 patterns=7", snaps[0].Counts)
	}

	// Finish is idempotent and Observe after Finish emits nothing.
	r.Finish()
	r.Observe()
	if n := len(rec.Snapshots()); n != 1 {
		t.Fatalf("events after Finish: %d total", n)
	}
}

func TestRunEmitsWhenIntervalPassed(t *testing.T) {
	var rec Recorder
	r := NewRun(&rec, time.Nanosecond, func() Counts { return Counts{Ops: 5} })
	time.Sleep(time.Millisecond)
	r.Observe()
	snaps := rec.Snapshots()
	if len(snaps) != 1 || snaps[0].Ops != 5 || snaps[0].Final {
		t.Fatalf("got %+v, want one non-final snapshot with ops=5", snaps)
	}
}

func TestRunObserveConcurrent(t *testing.T) {
	var rec Recorder
	r := NewRun(&rec, time.Nanosecond, func() Counts { return Counts{} })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Observe()
			}
		}()
	}
	wg.Wait()
	r.Finish()
	snaps := rec.Snapshots()
	if len(snaps) == 0 || !snaps[len(snaps)-1].Final {
		t.Fatalf("want at least the final snapshot, got %d", len(snaps))
	}
	for _, p := range snaps[:len(snaps)-1] {
		if p.Final {
			t.Fatal("non-closing snapshot marked Final")
		}
	}
}

func TestMonotoneSnapshots(t *testing.T) {
	var rec Recorder
	var mu sync.Mutex
	counts := Counts{}
	r := NewRun(&rec, time.Nanosecond, func() Counts {
		mu.Lock()
		defer mu.Unlock()
		return counts
	})
	for i := 0; i < 50; i++ {
		mu.Lock()
		counts.Ops++
		counts.Checks += 2
		mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		r.Observe()
	}
	r.Finish()
	snaps := rec.Snapshots()
	for i := 1; i < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		if cur.Ops < prev.Ops || cur.Checks < prev.Checks || cur.Elapsed < prev.Elapsed {
			t.Fatalf("snapshot %d not monotone: %+v after %+v", i, cur, prev)
		}
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() with no sinks should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	var rec Recorder
	if got := Multi(nil, &rec); got != Sink(&rec) {
		t.Fatalf("Multi with one sink should return it unwrapped, got %T", got)
	}
	var a, b Recorder
	m := Multi(&a, &b)
	m.Span(Span{Phase: PhasePrep})
	m.Progress(Progress{Final: true})
	for _, r := range []*Recorder{&a, &b} {
		if len(r.Spans()) != 1 || len(r.Snapshots()) != 1 {
			t.Fatalf("multi did not fan out: %d spans, %d snapshots", len(r.Spans()), len(r.Snapshots()))
		}
	}
}

func TestProgressSink(t *testing.T) {
	if ProgressSink(nil) != nil {
		t.Fatal("ProgressSink(nil) should be nil")
	}
	var got []Progress
	s := ProgressSink(func(p Progress) { got = append(got, p) })
	s.Span(Span{Phase: PhaseMine}) // dropped
	s.Progress(Progress{Counts: Counts{Patterns: 3}})
	if len(got) != 1 || got[0].Patterns != 3 {
		t.Fatalf("progress callback got %+v", got)
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewTextSink(&buf)
	s.Span(Span{Phase: PhasePrep, Duration: 3 * time.Millisecond, Counts: Counts{Ops: 9}})
	s.Progress(Progress{Elapsed: time.Second, Counts: Counts{Patterns: 4}, Final: true})
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %q", out)
	}
	if !strings.HasPrefix(lines[0], "span phase=prep ") || !strings.Contains(lines[0], "ops=9") {
		t.Errorf("span line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "progress elapsed=1s ") || !strings.HasSuffix(lines[1], " final") {
		t.Errorf("progress line = %q", lines[1])
	}
}

func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf)
	start := time.Now()
	s.Span(Span{Phase: PhaseMine, Start: start, Duration: time.Millisecond, Counts: Counts{Checks: 2}})
	s.Progress(Progress{Elapsed: 5 * time.Millisecond, Counts: Counts{Patterns: 1}, Final: true})

	dec := json.NewDecoder(&buf)
	var span map[string]any
	if err := dec.Decode(&span); err != nil {
		t.Fatalf("span line does not decode: %v", err)
	}
	if span["event"] != "span" || span["phase"] != "mine" || span["checks"] != float64(2) {
		t.Errorf("span event = %v", span)
	}
	var prog map[string]any
	if err := dec.Decode(&prog); err != nil {
		t.Fatalf("progress line does not decode: %v", err)
	}
	if prog["event"] != "progress" || prog["final"] != true || prog["patterns"] != float64(1) {
		t.Errorf("progress event = %v", prog)
	}
}

// TestCountsSchema pins the one counter schema. Every Counts field has a
// distinct snake_case JSON key; with each field set to a distinct value,
// the accumulator round-trips it, and the JSON lines, the text lines and
// the expvar map all carry it under that key. A counter added to Counts
// cannot be wired into only some of them.
func TestCountsSchema(t *testing.T) {
	var c Counts
	v := reflect.ValueOf(&c).Elem()
	want := map[string]int64{}
	snake := regexp.MustCompile(`^[a-z]+(_[a-z]+)*$`)
	for i := 0; i < v.NumField(); i++ {
		key := v.Type().Field(i).Tag.Get("json")
		if !snake.MatchString(key) {
			t.Fatalf("field %s has JSON key %q, want one snake_case key", v.Type().Field(i).Name, key)
		}
		v.Field(i).SetInt(int64(101 + i))
		want[key] = int64(101 + i)
	}
	if len(want) != v.NumField() {
		t.Fatalf("%d fields share %d JSON keys", v.NumField(), len(want))
	}

	var acc Counters
	acc.Add(c)
	if got := acc.Load(); got != c {
		t.Errorf("Counters round trip: Load() = %+v after Add(%+v)", got, c)
	}

	emit := func(s Sink) {
		s.Span(Span{Phase: PhaseMine, Counts: c})
		s.Progress(Progress{Elapsed: time.Second, Counts: c})
		s.Note(Note{Kind: NoteRetry, Detail: "shard 1", Counts: c})
	}
	check := func(form, line string, got map[string]string) {
		t.Helper()
		for key, n := range want {
			if got[key] != strconv.FormatInt(n, 10) {
				t.Errorf("%s %q: %s = %q, want %d", form, line, key, got[key], n)
			}
		}
	}

	var buf bytes.Buffer
	emit(NewJSONSink(&buf))
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("JSON line %q: %v", line, err)
		}
		got := map[string]string{}
		for k, x := range ev {
			if f, ok := x.(float64); ok {
				got[k] = strconv.FormatFloat(f, 'f', -1, 64)
			}
		}
		check("JSON line", line, got)
	}

	buf.Reset()
	emit(NewTextSink(&buf))
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		got := map[string]string{}
		for _, field := range strings.Fields(line) {
			if k, x, ok := strings.Cut(field, "="); ok {
				got[k] = x
			}
		}
		check("text line", line, got)
	}

	NewExpvarSink("obs_schema_test").Progress(Progress{Counts: c})
	m := expvar.Get("obs_schema_test").(*expvar.Map)
	got := map[string]string{}
	m.Do(func(kv expvar.KeyValue) { got[kv.Key] = kv.Value.String() })
	check("expvar map", "obs_schema_test", got)
}

func TestExpvarSink(t *testing.T) {
	s := NewExpvarSink("obs_test")
	s.Span(Span{Phase: PhaseMine, Duration: 4 * time.Millisecond})
	s.Span(Span{Phase: PhaseMine, Duration: 6 * time.Millisecond})
	s.Progress(Progress{Elapsed: time.Second, Counts: Counts{Patterns: 11, Ops: 22}})
	s.Progress(Progress{Elapsed: 2 * time.Second, Counts: Counts{Patterns: 12, Ops: 30}, Final: true})

	m := expvar.Get("obs_test").(*expvar.Map)
	want := map[string]string{
		"span_mine_count": "2",
		"span_mine_ms":    "10",
		"patterns":        "12",
		"ops":             "30",
		"progress_events": "2",
		"runs":            "1",
	}
	for key, v := range want {
		got := m.Get(key)
		if got == nil || got.String() != v {
			t.Errorf("%s = %v, want %s", key, got, v)
		}
	}

	// A second sink under the same name shares the map and keeps
	// accumulating.
	s2 := NewExpvarSink("obs_test")
	s2.Progress(Progress{Final: true})
	if got := m.Get("runs").String(); got != "2" {
		t.Errorf("runs after second sink = %s, want 2", got)
	}
}

func TestEmitSpanNilSink(t *testing.T) {
	EmitSpan(nil, PhaseSnapshot, time.Now(), Counts{}) // must not panic
	var rec Recorder
	EmitSpan(&rec, PhaseSnapshot, time.Now().Add(-time.Millisecond), Counts{NodesPeak: 3})
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Phase != PhaseSnapshot || spans[0].NodesPeak != 3 || spans[0].Duration <= 0 {
		t.Fatalf("EmitSpan recorded %+v", spans)
	}
}

// TestEmitGauge covers the gauge extension: the expvar publisher and the
// Recorder receive gauges (latest value wins), a Multi fan-out forwards
// them to the gauge-capable members, gauge-less sinks are skipped
// silently, and the nil-sink fast path allocates nothing — the serving
// layer's gauges must preserve the PR-5 "no sink, no counters" contract.
func TestEmitGauge(t *testing.T) {
	// Nil sink: no panic, no allocation.
	if allocs := testing.AllocsPerRun(100, func() {
		EmitGauge(nil, "serve_queue_depth", 7)
	}); allocs != 0 {
		t.Errorf("EmitGauge(nil) allocates %.1f per call, want 0", allocs)
	}

	// Recorder: latest value wins.
	var rec Recorder
	EmitGauge(&rec, "serve_queue_depth", 3)
	EmitGauge(&rec, "serve_queue_depth", 5)
	EmitGauge(&rec, "serve_breaker_state", 1)
	g := rec.Gauges()
	if g["serve_queue_depth"] != 5 || g["serve_breaker_state"] != 1 {
		t.Errorf("recorder gauges = %v", g)
	}

	// A sink without gauge support is skipped without error.
	EmitGauge(NewTextSink(io.Discard), "serve_shed_total", 1)

	// Multi forwards to every gauge-capable member.
	var rec2 Recorder
	m := Multi(NewTextSink(io.Discard), &rec, &rec2)
	EmitGauge(m, "serve_shed_total", 9)
	if rec.Gauges()["serve_shed_total"] != 9 || rec2.Gauges()["serve_shed_total"] != 9 {
		t.Errorf("multi did not forward gauges: %v %v", rec.Gauges(), rec2.Gauges())
	}

	// The expvar publisher overwrites rather than accumulates.
	s := NewExpvarSink("obs_gauge_test")
	EmitGauge(s, "serve_queue_depth", 4)
	EmitGauge(s, "serve_queue_depth", 2)
	mp := expvar.Get("obs_gauge_test").(*expvar.Map)
	if got := mp.Get("serve_queue_depth"); got == nil || got.String() != "2" {
		t.Errorf("expvar gauge = %v, want 2", got)
	}
}
