package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
)

// span is one timed call at a layer boundary. Start and End are offsets
// from the tracer's origin; Parent is 0 for a root span; spans of one
// benchmark operation share Op.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Every method is safe
// on a nil tracer and then does nothing, so the untraced path runs the
// same code with a nil tracer. The server records its request spans from
// its own goroutines, hence the mutex.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// add records a span timed elsewhere.
func (t *tracer) add(name string, parent, op int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	off := start.Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: off, End: off + d})
}

// durations returns the durations of the spans called name, in ms,
// leaving out those of warm-up operations (op 0).
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Op > 0 && s.End >= 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write stores the spans as JSON lines in path.
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
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// serverSink is the obs.Sink the traced server and its store report to:
// request spans ("serve.request:<endpoint>") and store spans
// ("persist.snapshot", "persist.rotate") are filed under the operation
// the client is running.
type serverSink struct {
	tr *tracer
	op *atomic.Int64
}

func (s serverSink) Span(sp obs.Span) {
	name := "persist." + sp.Phase
	if strings.HasPrefix(sp.Phase, obs.PhaseRequest+":") {
		name = "serve." + sp.Phase
	}
	s.tr.add(name, 0, int(s.op.Load()), sp.Start, sp.Duration)
}

func (serverSink) Progress(obs.Progress) {}
func (serverSink) Note(obs.Note)         {}

// countingFS counts the bytes the durable store writes (WAL records and
// snapshots).
type countingFS struct {
	persist.FS
	written *atomic.Int64
}

func (c countingFS) Create(name string) (persist.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.written}, nil
}

type countingFile struct {
	persist.File
	written *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written.Add(int64(n))
	return n, err
}

// meter reads the Go runtime's allocation and CPU-class counters. Reading
// runtime/metrics does not stop the world and does not allocate, so it
// can bracket every operation.
type meter struct{ s []metrics.Sample }

func newMeter() *meter {
	return &meter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// reading is one snapshot of the meter's counters.
type reading struct {
	alloc      uint64
	gcCPU, cpu float64
}

func (m *meter) read() reading {
	metrics.Read(m.s)
	return reading{
		alloc: m.s[0].Value.Uint64(),
		gcCPU: m.s[1].Value.Float64(),
		cpu:   m.s[2].Value.Float64(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
