// Package obs is the run-level observability layer: typed events
// describing one mining run (phase spans, rate-limited progress
// snapshots) and pluggable sinks that receive them (structured text and
// JSON writers, expvar-backed process metrics, an in-memory recorder for
// tests).
//
// The layer is strictly opt-in: a run with no sink configured builds no
// obs state at all and the mining hot loops stay on their atomic-free
// fast path (see internal/mining). When a sink is configured, events are
// produced only on the amortized slow path of mining.Control (progress)
// and at phase boundaries (spans), so the overhead is a few atomic loads
// per budget check — never per pattern-search step. See DESIGN.md §5e
// for the event taxonomy and overhead contract.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase names of the spans the engine and persistence layers emit. The
// set is open — a sink must tolerate unknown phases — but these cover
// the built-in pipeline.
const (
	// PhasePrep is the shared preprocessing pipeline (internal/prep).
	PhasePrep = "prep"
	// PhaseMine is the miner itself, from the prepared database to the
	// last reported pattern (it encloses PhaseMerge in parallel runs).
	PhaseMine = "mine"
	// PhaseMerge is the merge stage of a parallel engine: candidate
	// reconstruction, exact recount, and subsumption filtering for IsTa;
	// the keep-the-maximum fold for Carpenter.
	PhaseMerge = "merge"
	// PhaseSnapshot is one durable snapshot write (internal/persist).
	PhaseSnapshot = "snapshot"
	// PhaseRotate is the log rotation following a snapshot: opening the
	// new WAL segment, closing the old one, pruning dead generations.
	PhaseRotate = "rotate"
	// PhaseRecover is the recovery pass of persist.Open: loading the
	// newest readable snapshot and replaying the WAL tail.
	PhaseRecover = "recover"
	// PhaseRequest is one served request of the mining service
	// (internal/serve): admission wait, mining, and response encoding.
	PhaseRequest = "request"
	// PhaseDrain is the graceful-drain pass of the mining service:
	// from the stop-accepting flip to the last in-flight request (and the
	// final snapshot) completing.
	PhaseDrain = "drain"
)

// Span is one completed phase of a run.
type Span struct {
	// Phase names the span (PhasePrep, PhaseMine, ...).
	Phase string `json:"phase"`
	// Start is the wall-clock time the phase began.
	Start time.Time `json:"start"`
	// Duration is the phase's wall-clock length.
	Duration time.Duration `json:"duration"`
	// Counts is the cumulative counter state when the phase ended.
	Counts
}

// Note kinds emitted by the self-healing runtime. Like phase names the
// set is open; sinks must tolerate unknown kinds.
const (
	// NoteRetry is one retry of a failed unit of work: a parallel shard
	// or branch group re-mined after its worker panicked.
	NoteRetry = "retry"
	// NoteDegrade is one unit of work abandoned after its retries were
	// exhausted: the run continues degraded and returns a typed partial
	// result.
	NoteDegrade = "degrade"
	// NoteRepair is one auto-repair action of the durable store: a
	// quarantined generation or a swept orphan file.
	NoteRepair = "repair"
)

// Note is a point-in-time event of the self-healing runtime (a retry, a
// degradation, a repair action) — unlike a Span it has no duration.
type Note struct {
	// Kind classifies the event (NoteRetry, NoteDegrade, NoteRepair).
	Kind string `json:"kind"`
	// Detail is a short human-readable description (which shard, which
	// file, which attempt).
	Detail string `json:"detail"`
	// Counts is the cumulative counter state when the event fired.
	Counts
}

// Progress is one rate-limited progress snapshot of a running mine.
type Progress struct {
	// Elapsed is the time since the run started.
	Elapsed time.Duration `json:"elapsed"`
	// Counts is the cumulative counter state at the snapshot.
	Counts
	// Final marks the closing snapshot emitted exactly once when the run
	// finishes (successfully or not); its Counts agree with the run's
	// final engine.Stats.
	Final bool `json:"final,omitempty"`
}

// Sink receives the events of one or more runs. Implementations must
// tolerate concurrent calls: progress snapshots are emitted from
// whichever worker goroutine hits the sampling window (serialized by the
// Run sampler, but spans from a concurrent phase may interleave). The
// sinks in this package serialize internally.
type Sink interface {
	Span(Span)
	Progress(Progress)
	Note(Note)
}

// EmitSpan sends a completed span ending now to sink. A nil sink drops
// the event, so callers need no sink-presence checks at phase
// boundaries.
func EmitSpan(sink Sink, phase string, start time.Time, c Counts) {
	if sink == nil {
		return
	}
	sink.Span(Span{Phase: phase, Start: start, Duration: time.Since(start), Counts: c})
}

// EmitNote sends a self-healing event to sink. A nil sink drops the
// event, so callers need no sink-presence checks on retry paths.
func EmitNote(sink Sink, kind, detail string, c Counts) {
	if sink == nil {
		return
	}
	sink.Note(Note{Kind: kind, Detail: detail, Counts: c})
}

// GaugeSink is an optional Sink extension for point-in-time gauges:
// current values that overwrite rather than accumulate (queue depth,
// in-flight weight, breaker state). Sinks that do not implement it
// simply never see gauges — EmitGauge probes with a type assertion, so
// the Sink interface itself stays stable for span/progress/note-only
// sinks.
type GaugeSink interface {
	Gauge(name string, value int64)
}

// EmitGauge publishes one gauge to sink if it supports gauges. A nil
// sink — the no-observability fast path — costs nothing and allocates
// nothing, preserving the "no sink, no counters" contract.
func EmitGauge(sink Sink, name string, value int64) {
	if sink == nil {
		return
	}
	if gs, ok := sink.(GaugeSink); ok {
		gs.Gauge(name, value)
	}
}

// DefaultInterval is the progress sampling interval used when a run does
// not choose one.
const DefaultInterval = 200 * time.Millisecond

// Run ties a sink to one mining run: span emission against a shared
// start time and rate-limited, serialized progress sampling. A nil *Run
// is inert, so call sites need no nil checks. Observe is safe to call
// concurrently from worker goroutines; at most one progress snapshot is
// emitted per interval, and none after Finish returns.
type Run struct {
	sink  Sink
	read  func() Counts
	start time.Time
	every time.Duration

	mu     sync.Mutex   // serializes emission
	last   atomic.Int64 // elapsed nanoseconds at the last emission
	closed atomic.Bool
}

// NewRun starts the observation of one run: events go to sink, progress
// snapshots are sampled at most once per every (0 or negative selects
// DefaultInterval), and read supplies the cumulative counter state — a
// run's Counters.Load (nil reads zero Counts). A nil sink returns a nil
// (inert) Run.
func NewRun(sink Sink, every time.Duration, read func() Counts) *Run {
	if sink == nil {
		return nil
	}
	if every <= 0 {
		every = DefaultInterval
	}
	if read == nil {
		read = func() Counts { return Counts{} }
	}
	return &Run{sink: sink, read: read, start: time.Now(), every: every}
}

// Observe is the amortized progress probe: it emits a progress snapshot
// if at least the sampling interval passed since the last one, and
// returns immediately otherwise (two atomic loads). Concurrent callers
// never block each other — the loser of the emission lock skips its
// sample instead of waiting.
func (r *Run) Observe() {
	if r == nil || r.closed.Load() {
		return
	}
	now := int64(time.Since(r.start))
	if now-r.last.Load() < int64(r.every) {
		return
	}
	if !r.mu.TryLock() {
		return // another goroutine is emitting this window's snapshot
	}
	defer r.mu.Unlock()
	if r.closed.Load() {
		return
	}
	elapsed := time.Since(r.start)
	if int64(elapsed)-r.last.Load() < int64(r.every) {
		return
	}
	// Read the counters inside the lock so successive snapshots are
	// monotone.
	r.sink.Progress(Progress{Elapsed: elapsed, Counts: r.read()})
	r.last.Store(int64(elapsed))
}

// Span emits a completed span that began at start and ends now, carrying
// the current counter state.
func (r *Run) Span(phase string, start time.Time) {
	if r == nil {
		return
	}
	EmitSpan(r.sink, phase, start, r.read())
}

// Note emits a self-healing event (a retry, a degradation) carrying the
// current counter state. Notes are never throttled — they are rare by
// construction and each one matters for diagnosing a degraded run.
func (r *Run) Note(kind, detail string) {
	if r == nil {
		return
	}
	EmitNote(r.sink, kind, detail, r.read())
}

// Finish emits the final progress snapshot (Final=true) and latches the
// Run closed: any Observe still in flight on another goroutine emits
// nothing afterwards. It is idempotent.
func (r *Run) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Swap(true) {
		return
	}
	r.sink.Progress(Progress{Elapsed: time.Since(r.start), Counts: r.read(), Final: true})
}
