// Package serve is the hardened mining service: an HTTP/JSON front end
// over the engine registry and the durable store that stays predictable
// under overload, faults and shutdown.
//
// Every request travels the same pipeline (DESIGN.md §5h):
//
//	admission (weighted gate, bounded queue, shed)  → 429
//	→ guard (deadline, pattern/node budgets, panic) → 206 / 500
//	→ store breaker (durable writes, read-only degrade) → 503
//	→ drain (SIGTERM: finish admitted work, snapshot, exit)
//
// The status codes mirror the CLI's exit-code contract: 200 ↔ exit 0,
// 400 ↔ exit 2, 206 ↔ exits 3 and 5 (truncated or degraded valid
// prefix), 503 with a store cause ↔ exit 4, 500 ↔ exit 1. 429 is the
// service-only overload answer — the CLI has no admission queue.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	fim "repro"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/txdb"
)

// Defaults for the zero Options value.
const (
	// DefaultMaxWeight is the admission capacity in transaction-weight
	// units (the weighted transaction count of a request's database).
	DefaultMaxWeight = 1 << 20
	// DefaultMaxQueue bounds the admission wait queue; beyond it
	// requests are shed with 429.
	DefaultMaxQueue = 64
	// DefaultTimeout is the per-request mining deadline when the request
	// names none.
	DefaultTimeout = 30 * time.Second
	// DefaultMaxTimeout caps the deadline a request may ask for.
	DefaultMaxTimeout = 5 * time.Minute
	// DefaultMaxBodyBytes bounds a request body.
	DefaultMaxBodyBytes = 32 << 20
	// DefaultBreakerFailures is the consecutive store-write failures
	// that open the circuit.
	DefaultBreakerFailures = 3
	// DefaultBreakerCooldown is the open → half-open delay.
	DefaultBreakerCooldown = 5 * time.Second
	// DefaultRetryAfter is the Retry-After hint on shed responses and on
	// store faults outside the breaker's cooldown.
	DefaultRetryAfter = 1 * time.Second
)

// Options configures a Server. The zero value serves mining without a
// durable store, with the defaults above.
type Options struct {
	// MaxWeight is the admission capacity in transaction-weight units;
	// 0 uses DefaultMaxWeight.
	MaxWeight int64
	// MaxQueue bounds the admission wait queue; 0 disables queueing
	// (saturation sheds immediately), negative values act as 0. Use
	// DefaultMaxQueue explicitly for the standard bound.
	MaxQueue int
	// DefaultTimeout and MaxTimeout bound per-request mining deadlines;
	// 0 uses the package defaults.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxPatterns, when positive, caps the per-request pattern budget
	// (requests asking for more, or for none, get this cap).
	MaxPatterns int
	// MaxTreeNodes, when positive, caps the per-request repository size.
	MaxTreeNodes int
	// Limits bounds decoded inputs (transaction length, item universe)
	// on both the JSON and the text decode path.
	Limits dataset.Limits
	// MaxBodyBytes bounds the request body; 0 uses DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// StoreDir, when non-empty, opens a durable store there and enables
	// the /tx and /closed endpoints.
	StoreDir string
	// StoreOptions configures the durable store (fault-injection FS,
	// snapshot cadence, ...). StoreOptions.Items must be set when the
	// directory holds no prior state.
	StoreOptions persist.Options
	// BreakerFailures and BreakerCooldown configure the store circuit
	// breaker; 0 uses the package defaults.
	BreakerFailures int
	BreakerCooldown time.Duration
	// DrainTimeout bounds Drain's wait for in-flight requests; 0 waits
	// for the caller's context only.
	DrainTimeout time.Duration
	// Obs, when non-nil, receives a span per request (phase "request"),
	// one for the drain (phase "drain"), and the admission/breaker
	// gauges after every request. Nil costs nothing.
	Obs obs.Sink
}

func (o *Options) fill() {
	if o.MaxWeight <= 0 {
		o.MaxWeight = DefaultMaxWeight
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = DefaultTimeout
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = DefaultMaxTimeout
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
}

// Server is the hardened mining service. Create with New, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	opt   Options
	gate  *gate
	store *storeManager // nil when no StoreDir was configured

	latch   drainLatch
	drained atomic.Int64 // requests completed while draining
	panics  atomic.Int64 // requests answered 500 after a contained panic
}

// New builds a Server, opening the durable store when configured.
func New(opt Options) (*Server, error) {
	opt.fill()
	s := &Server{opt: opt, gate: newGate(opt.MaxWeight, opt.MaxQueue)}
	if opt.StoreDir != "" {
		br := newBreaker(opt.BreakerFailures, opt.BreakerCooldown)
		st, err := openStore(opt.StoreDir, opt.StoreOptions, br)
		if err != nil {
			return nil, fmt.Errorf("serve: open store: %w", err)
		}
		s.store = st
	}
	return s, nil
}

// Handler returns the service's HTTP handler. Every route is wrapped in
// the panic containment middleware, so a panicking handler answers 500
// and the process survives.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /mine", s.handleMine)
	mux.HandleFunc("POST /tx", s.handleTx)
	mux.HandleFunc("GET /closed", s.handleClosed)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return s.contain(mux)
}

// contain is the per-request panic barrier. fim.Mine already contains
// miner and reporter panics; this catches everything else in the
// handler path, reusing guard's panic capture so the log carries the
// stack of the panicking goroutine.
func (s *Server) contain(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				perr := guard.NewPanicError(v)
				writeError(w, http.StatusInternalServerError, perr.Error(), 0)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleMine runs one mining request through the full pipeline:
// decode → admission (weight = weighted transaction count) → guarded
// mine → classify.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.latch.begin() {
		writeDraining(w)
		return
	}
	var st fim.MiningStats
	defer func() { s.finish(start, "mine", st.Counts) }()

	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	db, req, err := decodeMineRequest(r, s.opt.Limits)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	target, err := parseTarget(req.Target)
	if err != nil {
		writeRequestError(w, err)
		return
	}

	weight := int64(txdb.StatsOf(db).Transactions)
	release, err := s.gate.acquire(r.Context(), weight)
	if err != nil {
		if errors.Is(err, ErrShed) {
			w.Header().Set("Retry-After", retryAfterValue(DefaultRetryAfter))
			writeError(w, http.StatusTooManyRequests, err.Error(), 0)
			return
		}
		// The client went away while queued; nothing to answer.
		writeError(w, statusClientGone, err.Error(), 0)
		return
	}
	defer release()

	timeout := s.opt.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.opt.MaxTimeout {
		timeout = s.opt.MaxTimeout
	}
	maxPatterns := req.MaxPatterns
	if s.opt.MaxPatterns > 0 && (maxPatterns <= 0 || maxPatterns > s.opt.MaxPatterns) {
		maxPatterns = s.opt.MaxPatterns
	}
	maxNodes := req.MaxTreeNodes
	if s.opt.MaxTreeNodes > 0 && (maxNodes <= 0 || maxNodes > s.opt.MaxTreeNodes) {
		maxNodes = s.opt.MaxTreeNodes
	}

	opts := fim.Options{
		MinSupport:   req.MinSupport,
		Algorithm:    fim.Algorithm(req.Algorithm),
		Target:       target,
		Context:      r.Context(),
		Deadline:     time.Now().Add(timeout),
		MaxPatterns:  maxPatterns,
		MaxTreeNodes: maxNodes,
		Parallelism:  req.Workers,
	}
	if s.opt.Obs != nil {
		// The request:mine span carries the run's counters; without a
		// sink Mine gets no Stats and stays counter-free.
		opts.Stats = &st
	}
	var set fim.ResultSet
	mineErr := fim.Mine(db, opts, set.Collect())

	status, reason, err := classify(mineErr)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	writeJSON(w, status, mineResponse{
		Patterns:  patternsJSON(&set),
		Count:     set.Len(),
		Truncated: status == http.StatusPartialContent,
		Reason:    reason,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// statusClientGone is the status for requests whose client disconnected
// while queued (nobody reads the answer; 499 by nginx convention).
const statusClientGone = 499

// classify maps a Mine error onto the response contract. A non-nil
// third return is a request defect (400).
func classify(err error) (status int, reason string, bad error) {
	switch {
	case err == nil:
		return http.StatusOK, "", nil
	case errors.Is(err, fim.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusPartialContent, "deadline", nil
	case errors.Is(err, fim.ErrBudget):
		return http.StatusPartialContent, "budget", nil
	case errors.Is(err, fim.ErrPartial):
		return http.StatusPartialContent, "degraded", nil
	case errors.Is(err, fim.ErrCanceled) || errors.Is(err, context.Canceled):
		return http.StatusPartialContent, "canceled", nil
	case errors.Is(err, fim.ErrUnknownAlgorithm), errors.Is(err, fim.ErrUnsupportedTarget):
		return 0, "", &clientError{msg: err.Error()}
	default:
		// Contained panics and any other internal failure.
		return http.StatusInternalServerError, "", &serverError{err}
	}
}

// serverError marks an internal failure (500).
type serverError struct{ err error }

func (e *serverError) Error() string { return e.err.Error() }
func (e *serverError) Unwrap() error { return e.err }

// handleTx appends one transaction to the durable store. Client defects
// (bad JSON, out-of-universe items) answer 400 without touching the
// breaker; store faults answer 503 with a Retry-After and feed it.
func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.latch.begin() {
		writeDraining(w)
		return
	}
	defer s.finish(start, "tx", obs.Counts{})

	if s.store == nil {
		writeError(w, http.StatusNotFound, "no durable store configured", 0)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	var req txRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON body: %v", err), 0)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "empty transaction", 0)
		return
	}
	if err := checkRows([][]int{req.Items}, s.opt.Limits); err != nil {
		writeRequestError(w, err)
		return
	}
	universe := s.store.Universe()
	for _, v := range req.Items {
		if v < 0 || v >= universe {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("item code %d outside store universe [0,%d)", v, universe), 0)
			return
		}
	}

	release, err := s.gate.acquire(r.Context(), 1)
	if err != nil {
		if errors.Is(err, ErrShed) {
			w.Header().Set("Retry-After", retryAfterValue(DefaultRetryAfter))
			writeError(w, http.StatusTooManyRequests, err.Error(), 0)
			return
		}
		writeError(w, statusClientGone, err.Error(), 0)
		return
	}
	defer release()

	if err := s.store.Append(itemset.FromInts(req.Items...)); err != nil {
		var ue *unavailableError
		if errors.As(err, &ue) {
			w.Header().Set("Retry-After", retryAfterValue(ue.retryAfter))
		} else {
			w.Header().Set("Retry-After", retryAfterValue(DefaultRetryAfter))
		}
		writeError(w, http.StatusServiceUnavailable, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleClosed serves the closed frequent item sets of the durable
// store at ?support=N. It works in read-only degraded mode: a latched
// store or an open breaker does not stop reads.
func (s *Server) handleClosed(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.latch.begin() {
		writeDraining(w)
		return
	}
	defer s.finish(start, "closed", obs.Counts{})

	if s.store == nil {
		writeError(w, http.StatusNotFound, "no durable store configured", 0)
		return
	}
	support, err := queryInt(r.URL.Query().Get("support"), 1)
	if err != nil || support < 1 {
		writeError(w, http.StatusBadRequest, "invalid support parameter (want a positive integer)", 0)
		return
	}
	set := s.store.ClosedSet(support)
	writeJSON(w, http.StatusOK, mineResponse{
		Patterns:  patternsJSON(set),
		Count:     set.Len(),
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers 200 while the server accepts new work, 503 while
// draining or while the store breaker is open (load balancers should
// route around a degraded instance even though reads still work).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.latch.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.store != nil {
		if st := s.store.br.stats(); st.Code != breakerClosed {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "store breaker %s\n", st.State)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// statusSnapshot is the /statusz body. InFlight counts requests inside
// the handler pipeline (it leads the admission gate's Inflight, which
// only counts requests past the gate).
type statusSnapshot struct {
	Draining  bool        `json:"draining"`
	InFlight  int         `json:"inFlight"`
	Admission gateStats   `json:"admission"`
	Store     *storeStats `json:"store,omitempty"`
	Panics    int64       `json:"panics"`
	Drained   int64       `json:"drained"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	snap := statusSnapshot{
		Draining:  s.latch.isDraining(),
		InFlight:  s.latch.count(),
		Admission: s.gate.stats(),
		Panics:    s.panics.Load(),
		Drained:   s.drained.Load(),
	}
	if s.store != nil {
		st := s.store.stats()
		snap.Store = &st
	}
	writeJSON(w, http.StatusOK, snap)
}

// finish closes out one request: drain accounting, the per-request
// span carrying the request's counters c, and a fresh gauge snapshot. A
// nil sink pays only the drain check.
func (s *Server) finish(start time.Time, phase string, c obs.Counts) {
	if s.latch.end() {
		s.drained.Add(1)
	}
	if s.opt.Obs != nil {
		obs.EmitSpan(s.opt.Obs, obs.PhaseRequest+":"+phase, start, c)
		s.publishGauges()
	}
}

// publishGauges pushes the admission and breaker state into gauge-capable
// sinks (expvar, recorders). Callers have checked the sink is non-nil.
func (s *Server) publishGauges() {
	sink := s.opt.Obs
	g := s.gate.stats()
	obs.EmitGauge(sink, "serve_active_weight", g.ActiveWeight)
	obs.EmitGauge(sink, "serve_inflight", g.Inflight)
	obs.EmitGauge(sink, "serve_queue_depth", g.QueueDepth)
	obs.EmitGauge(sink, "serve_admitted_total", g.Admitted)
	obs.EmitGauge(sink, "serve_queued_total", g.Queued)
	obs.EmitGauge(sink, "serve_shed_total", g.Shed)
	obs.EmitGauge(sink, "serve_drained_total", s.drained.Load())
	if s.store != nil {
		b := s.store.br.stats()
		obs.EmitGauge(sink, "serve_breaker_state", b.Code)
		obs.EmitGauge(sink, "serve_breaker_trips", b.Trips)
	}
}

// Drain performs the graceful shutdown sequence: stop admitting new
// requests (begin answers 503, /readyz flips), wait for every admitted
// request to finish — bounded by ctx and Options.DrainTimeout — then
// write a final store snapshot. Zero admitted requests are lost: only
// requests that never entered the pipeline see the 503.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	if s.opt.DrainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.DrainTimeout)
		defer cancel()
	}
	s.latch.startDrain()
	err := s.latch.wait(ctx)

	if s.store != nil {
		if serr := s.store.Snapshot(); serr != nil && err == nil {
			err = fmt.Errorf("serve: drain snapshot: %w", serr)
		}
	}
	if s.opt.Obs != nil {
		obs.EmitSpan(s.opt.Obs, obs.PhaseDrain, start, obs.Counts{})
		s.publishGauges()
	}
	return err
}

// Close releases the store handle. Call after Drain.
func (s *Server) Close() error {
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// drainLatch tracks in-flight requests and the draining flag with one
// lock, closing the race between "is the server draining?" and "count
// me in-flight" that a bare WaitGroup would leave open.
type drainLatch struct {
	mu       sync.Mutex
	inflight int
	draining bool
	idle     chan struct{} // closed once draining with zero in-flight
}

// begin registers one request; it reports false — and registers nothing
// — once draining started.
func (l *drainLatch) begin() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining {
		return false
	}
	l.inflight++
	return true
}

// end closes out one request and reports whether it completed during a
// drain (for the drained counter).
func (l *drainLatch) end() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inflight--
	if l.draining && l.inflight == 0 && l.idle != nil {
		close(l.idle)
		l.idle = nil
	}
	return l.draining
}

func (l *drainLatch) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

func (l *drainLatch) isDraining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.draining
}

// startDrain flips the latch; subsequent begin calls fail.
func (l *drainLatch) startDrain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining {
		return
	}
	l.draining = true
	if l.inflight > 0 {
		l.idle = make(chan struct{})
	}
}

// wait blocks until every in-flight request finished or ctx fired.
func (l *drainLatch) wait(ctx context.Context) error {
	l.mu.Lock()
	idle := l.idle
	l.mu.Unlock()
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

func retryAfterValue(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string, line int) {
	writeJSON(w, status, errorResponse{Error: msg, Line: line})
}

// writeDraining answers a request rejected by the drain latch.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Connection", "close")
	writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
}

// writeRequestError maps decode/validation errors: clientErrors answer
// 400 (with the offending line when known), body-size overruns answer
// 413, everything else 500.
func writeRequestError(w http.ResponseWriter, err error) {
	var ce *clientError
	if errors.As(err, &ce) {
		writeError(w, http.StatusBadRequest, ce.msg, ce.line)
		return
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error(), 0)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error(), 0)
}
