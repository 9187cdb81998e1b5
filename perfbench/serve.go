package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	fim "repro"
	"repro/internal/gendata"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/txdb"
)

// The serve workload: one client on one keep-alive connection runs
// closed-loop cycles of 1 × POST /mine, one POST /tx per transaction of
// a fixed stream, and 1 × GET /closed. Set-up preloads the same stream,
// so every cycle appends one more copy of transactions the store already
// holds: its prefix tree, and with it the cost of /tx and /closed, stays
// the same however long the run is, and the closed sets after c copies
// are the stream's closed sets with every support times c.
const (
	mineSupport   = 3 // /mine support on the basket body
	closedSupport = 2 // /closed support per copy of the stream
)

// mineBody is the /mine request body: a small market-basket database.
func mineBody() *txdb.DB {
	return gendata.Quest(gendata.QuestConfig{
		Items: 1000, Transactions: 2000, AvgLen: 10,
		Patterns: 200, AvgPatternLen: 4, Bundles: 20, Seed: baseSeed,
	})
}

// txStream is the transaction stream /tx appends: 16 long transactions
// whose closed sets make /closed cost a few milliseconds. It is short so
// that the fsyncs of /tx, whose latency the disk decides, stay a small
// share of a cycle.
func txStream() *txdb.DB { return gendata.Dense(16, 48, 0.20, 0.80, baseSeed) }

// service is an in-process serve.Server with a durable store, listening
// on a loopback port, and its client.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	copies int // copies of the stream the store holds

	op      atomic.Int64 // request the client is running, for the sink
	written atomic.Int64 // bytes the store wrote (traced runs only)
}

// startService opens a fresh store in dir and serves it. With a tracer,
// the server's request spans, the store's snapshot spans and the bytes
// the store writes are recorded; without one the service is exactly the
// untraced one.
func startService(dir string, universe int, tr *tracer) (*service, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := &service{served: make(chan error, 1)}
	// The limits cmd/fimd starts with.
	opt := serve.Options{
		MaxQueue:     serve.DefaultMaxQueue,
		StoreDir:     dir,
		StoreOptions: persist.Options{Items: universe},
	}
	if tr != nil {
		sink := serverSink{tr: tr, op: &s.op}
		opt.StoreOptions.Obs = sink
		opt.StoreOptions.FS = countingFS{FS: persist.OS, written: &s.written}
		opt.Obs = sink
	}
	srv, err := serve.New(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	s.url = "http://" + ln.Addr().String()
	return s, nil
}

// close stops the HTTP server, waits for it, and closes the store.
func (s *service) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// do sends one request and reads the whole answer.
func (s *service) do(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// shed asks /statusz how many requests the admission gate shed.
func (s *service) shed() (int64, error) {
	code, b, err := s.do(http.MethodGet, "/statusz", "", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("statusz: HTTP %d", code)
	}
	var st struct {
		Admission struct {
			Shed int64 `json:"shed"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, fmt.Errorf("statusz: %w", err)
	}
	return st.Admission.Shed, nil
}

// serveInputs are the generated request bodies of one seed.
type serveInputs struct {
	body     []byte   // /mine body (FIMI text)
	txBodies [][]byte // one /tx body per stream transaction
	universe int      // item universe of the stream
	rows     [][]int  // the stream
}

func newServeInputs(seed int64) serveInputs {
	stream := txStream()
	in := serveInputs{
		body:     seeded(mineBody(), seed),
		rows:     relabel(stream, seed),
		universe: stream.NumItems(),
	}
	for _, row := range in.rows {
		b, _ := json.Marshal(struct {
			Items []int `json:"items"`
		}{row}) // a struct of ints always marshals
		in.txBodies = append(in.txBodies, b)
	}
	return in
}

// serveRefs are the reference results of one seed.
type serveRefs struct {
	mine   digest         // /mine on the body
	stream *fim.ResultSet // closed sets of one copy of the stream
}

// newServeRefs mines both references with LCM, which shares no code
// with the IsTa miner behind /mine or the incremental tree behind
// /closed.
func newServeRefs(in serveInputs) (serveRefs, error) {
	mine, err := reference(in.body, fim.LCM, mineSupport)
	if err != nil {
		return serveRefs{}, fmt.Errorf("/mine %w", err)
	}
	stream, err := reference(fimiBytes(in.rows), fim.LCM, closedSupport)
	if err != nil {
		return serveRefs{}, fmt.Errorf("/closed %w", err)
	}
	return serveRefs{mine: digestOfSet(mine, 1), stream: stream}, nil
}

// patternsBody is the part of a /mine or /closed answer the check reads.
type patternsBody struct {
	Patterns []struct {
		Items   []int `json:"items"`
		Support int   `json:"support"`
	} `json:"patterns"`
	Count     int  `json:"count"`
	Truncated bool `json:"truncated"`
}

// checkPatterns compares a /mine or /closed answer with want.
func checkPatterns(code int, b []byte, want digest) error {
	if code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", code, b)
	}
	var pb patternsBody
	if err := json.Unmarshal(b, &pb); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	var got digest
	var buf []byte
	for _, p := range pb.Patterns {
		buf = got.add(p.Items, p.Support, buf)
	}
	if pb.Truncated || pb.Count != got.N || got != want {
		return fmt.Errorf("%d patterns (count %d, truncated %v) digest %x, reference %d patterns digest %x",
			got.N, pb.Count, pb.Truncated, got.Sum, want.N, want.Sum)
	}
	return nil
}

// mineRequest is one timed /mine request and, in the traced phase, the
// in-process replay of its work.
type mineRequest struct {
	op     int
	lat    time.Duration
	size   int
	replay *jobTrace
}

// cycle runs one cycle of the mix, timing each request into s under its
// endpoint's kind plus suffix and checking each answer. It returns the
// /mine request.
func cycle(s *sampler, svc *service, in serveInputs, ref serveRefs, nextOp func() int, suffix string) mineRequest {
	var mine mineRequest
	var code int
	var b []byte
	var err error

	mine.op = nextOp()
	svc.op.Store(int64(mine.op))
	path := "/mine?support=" + strconv.Itoa(mineSupport)
	mine.lat = s.time("mine"+suffix, func() { code, b, err = svc.do(http.MethodPost, path, "text/plain", in.body) })
	mine.size = len(b)
	if err == nil {
		err = checkPatterns(code, b, ref.mine)
	}
	if err != nil {
		s.fail("/mine: %v", err)
	}

	for _, tx := range in.txBodies {
		svc.op.Store(int64(nextOp()))
		s.time("tx"+suffix, func() { code, b, err = svc.do(http.MethodPost, "/tx", "application/json", tx) })
		if err == nil && (code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(b), []byte(`{"ok":true}`))) {
			err = fmt.Errorf("HTTP %d: %.200s", code, b)
		}
		if err != nil {
			s.fail("/tx: %v", err)
		}
	}
	svc.copies++

	svc.op.Store(int64(nextOp()))
	path = "/closed?support=" + strconv.Itoa(closedSupport*svc.copies)
	s.time("closed"+suffix, func() { code, b, err = svc.do(http.MethodGet, path, "", nil) })
	if err == nil {
		err = checkPatterns(code, b, digestOfSet(ref.stream, svc.copies))
	}
	if err != nil {
		s.fail("/closed: %v", err)
	}
	return mine
}

// setUpService starts a service on a fresh store, preloads the stream
// and runs warm-up cycles; the warm-up answers are checked too.
func setUpService(cfg config, dir string, in serveInputs, ref serveRefs, tr *tracer) (*service, error) {
	svc, err := startService(dir, in.universe, tr)
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	for _, tx := range in.txBodies {
		code, b, err := svc.do(http.MethodPost, "/tx", "application/json", tx)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %.200s", code, b)
		}
		if err != nil {
			svc.close()
			return nil, fmt.Errorf("preload /tx: %w", err)
		}
	}
	svc.copies = 1
	warm := newSampler(cfg)
	for i := 0; i < cfg.warmups; i++ {
		cycle(warm, svc, in, ref, func() int { return 0 }, "")
	}
	if warm.failed > 0 {
		svc.close()
		return nil, fmt.Errorf("warm-up: %d failed requests", warm.failed)
	}
	return svc, nil
}

// runServe measures the service workload. The first set-up's service
// serves the whole run, so the store keeps its snapshot cadence; each
// later set-up starts, preloads and warms a spare service the same way
// and closes it again, untimed. A traced run sets up a second, traced
// service beside the plain one and alternates cycles between the two.
func runServe(cfg config) (*outcome, error) {
	// The references depend only on the inputs, which each set-up
	// rebuilds identically; they are computed once, untimed.
	in := newServeInputs(cfg.seed)
	ref, err := newServeRefs(in)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	dir := func(name string) string { return filepath.Join(cfg.workdir, "serve-"+name) }
	var svc, tsvc *service
	closeAll := func() error {
		var err error
		for _, sv := range []*service{svc, tsvc} {
			if sv == nil {
				continue
			}
			if cerr := sv.close(); err == nil && cerr != nil {
				err = fmt.Errorf("close service: %w", cerr)
			}
		}
		svc, tsvc = nil, nil
		return err
	}
	defer func() {
		closeAll()
		for _, name := range []string{"store", "traced", "spare"} {
			os.RemoveAll(dir(name))
		}
	}()
	var written int64 // bytes the traced store wrote before the measured cycles
	setUp := func() (func() error, error) {
		fresh := newServeInputs(cfg.seed)
		if svc != nil {
			spare, err := setUpService(cfg, dir("spare"), fresh, ref, nil)
			if err != nil {
				return nil, err
			}
			return spare.close, nil
		}
		if svc, err = setUpService(cfg, dir("store"), fresh, ref, nil); err != nil {
			return nil, err
		}
		if cfg.trace {
			if tsvc, err = setUpService(cfg, dir("traced"), fresh, ref, tr); err != nil {
				return nil, err
			}
			written = tsvc.written.Load()
		}
		return nil, nil
	}

	op := 0
	nextOp := func() int { op++; return op }
	var mines []mineRequest
	var jobs []jobTrace
	var mirrors []mirrorOut
	var out bytes.Buffer
	o := newOutcome(cfg)
	err = o.measure(setUp, func(s *sampler) {
		s.calibrate()
		runtime.GC()
		cycle(s, svc, in, ref, nextOp, "")
		if !cfg.trace {
			return
		}

		s.calibrate()
		runtime.GC()
		m := cycle(s, tsvc, in, ref, nextOp, tracedKind)
		// The same /mine work replayed in-process, outside the timed
		// requests, splits the server's mine span into its layers.
		jt, err := job(in.body, fim.IsTa, mineSupport, &out, tr, m.op)
		if err != nil {
			s.fail("replayed /mine job: %v", err)
			return
		}
		m.replay = &jt
		mines = append(mines, m)
		jobs = append(jobs, jt)
		mo, err := mirrorIsTa(in.body, mineSupport, tr, m.op)
		if err == nil {
			err = mo.agrees(digestOfOutput(out.Bytes()), jt.stats)
		}
		if err != nil {
			s.fail("core mirror: %v", err)
			return
		}
		mirrors = append(mirrors, mo)
	})
	if err != nil {
		return nil, err
	}
	o.vals["serve.tx_p50_ms"] = median(o.s.wall["tx"])
	o.vals["serve.closed_p50_ms"] = median(o.s.wall["closed"])
	if !cfg.trace {
		o.endToEnd("mine")
		return o, closeAll()
	}

	var shed int64
	for _, sv := range []*service{svc, tsvc} {
		n, err := sv.shed()
		if err != nil {
			return nil, err
		}
		shed += n
	}
	// Stopping the traced service the way cmd/fimd stops, with a drain,
	// writes one more snapshot, so even a short run records one.
	if err := tsvc.srv.Drain(context.Background()); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	written = tsvc.written.Load() - written
	if err := closeAll(); err != nil {
		return nil, err
	}
	o.perLayerJobs("mine", jobs)
	o.perLayerCore(jobs, mirrors)
	o.perLayerServe(tr, mines, shed, written, len(o.s.lat["tx"+tracedKind]))
	return o, o.writeTrace(tr)
}

// perLayerServe fills the serve and persist metrics from the traced
// service's spans and the client's timings of its requests. written is
// what its store wrote from the end of set-up through the drain, and
// txs the measured /tx appends it served.
func (o *outcome) perLayerServe(tr *tracer, mines []mineRequest, shed, written int64, txs int) {
	server := map[int]time.Duration{}
	var snapshots []float64
	tr.mu.Lock()
	for _, sp := range tr.spans {
		switch {
		case sp.Op > 0 && sp.Name == "serve.request:mine":
			server[sp.Op] = sp.dur()
		case sp.Op > 0 && sp.Name == "persist.snapshot":
			snapshots = append(snapshots, ms(sp.dur()))
		}
	}
	tr.mu.Unlock()

	var other, wire, size []float64
	for _, m := range mines {
		d, ok := server[m.op]
		if !ok {
			continue
		}
		wire = append(wire, ms(m.lat-d))
		size = append(size, float64(m.size)/1024)
		other = append(other, ms(d-m.replay.read-m.replay.run))
	}
	v := o.vals
	v["serve.mine_ms"] = median(tr.durations("serve.request:mine"))
	v["serve.tx_ms"] = median(tr.durations("serve.request:tx"))
	v["serve.closed_ms"] = median(tr.durations("serve.request:closed"))
	v["serve.mine_other_ms"] = median(other)
	v["serve.wire_ms"] = median(wire)
	v["serve.resp_kb"] = median(size)
	v["serve.shed"] = float64(shed)
	v["persist.snapshot_ms"] = median(snapshots)
	v["persist.snapshots"] = float64(len(snapshots))
	v["persist.bytes_per_tx"] = ratio(float64(written), float64(txs))
}
