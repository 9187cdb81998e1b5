package serve

// Server-level chaos suite: the required end-to-end fault drills against
// a live httptest server — overload shedding, panic containment with
// concurrent healthy traffic, store-fault breaker recovery, slow and
// hung clients, and the graceful drain losing zero admitted requests.
// Every test runs under the goroutine leak check, so a wedged handler,
// an abandoned admission waiter or an unclosed store would fail the
// suite even when the assertions pass.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/persist"
)

// shutdown closes the test server and the shared client's idle
// connections, so the deferred LeakCheck sees a settled goroutine set
// instead of parked HTTP keep-alive loops.
func shutdown(ts *httptest.Server) {
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
}

// TestChaosShedUnderFullQueue saturates a capacity-1 server with a
// parked request, fills the single queue slot, and proves the next
// request is shed with 429 + Retry-After while the admitted ones all
// complete once released.
func TestChaosShedUnderFullQueue(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	release := armBlock()
	defer release()

	srv, ts := newTestServer(t, Options{MaxWeight: 1, MaxQueue: 1})
	defer shutdown(ts)

	req := mineRequest{Transactions: [][]int{{0, 1}}, MinSupport: 1, Algorithm: "test-block"}
	type answer struct {
		status int
		body   mineResponse
	}
	answers := make(chan answer, 2)
	mineAsync := func() {
		resp, data := postJSON(t, ts.URL+"/mine", req)
		var mr mineResponse
		json.Unmarshal(data, &mr)
		answers <- answer{resp.StatusCode, mr}
	}

	go mineAsync() // A: admitted, parks in test-block
	waitFor(t, func() bool { return srv.gate.stats().Inflight == 1 })
	go mineAsync() // B: queued
	waitFor(t, func() bool { return srv.gate.stats().QueueDepth == 1 })

	// C: capacity busy, queue full → shed.
	resp, data := postJSON(t, ts.URL+"/mine", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}

	release()
	for i := 0; i < 2; i++ {
		a := <-answers
		if a.status != http.StatusOK || a.body.Count != 1 {
			t.Errorf("admitted request %d: status %d, count %d; want 200 with 1 pattern",
				i, a.status, a.body.Count)
		}
	}
	st := srv.gate.stats()
	if st.Admitted != 2 || st.Queued != 1 || st.Shed != 1 {
		t.Errorf("gate stats = %+v, want 2 admitted / 1 queued / 1 shed", st)
	}
}

// TestChaosPanicContainment panics inside a miner while healthy traffic
// runs concurrently: the panicking request answers 500, every healthy
// request answers 200, and the process (trivially) survives.
func TestChaosPanicContainment(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	_, ts := newTestServer(t, Options{})
	defer shutdown(ts)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
				Transactions: [][]int{{0, 1}, {0, 1}, {0, 2}}, MinSupport: 2,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthy request: status %d, body %s", resp.StatusCode, data)
			}
		}()
	}

	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1}}, MinSupport: 1, Algorithm: "test-panic",
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500 (body %s)", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "panic") {
		t.Errorf("500 body %s does not name the panic", data)
	}
	wg.Wait()

	// The server still answers after the panic.
	resp, data = postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0}}, MinSupport: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-panic request: status %d, body %s", resp.StatusCode, data)
	}
}

// TestChaosTickPanic injects a panic at a mining-control tick of a real
// algorithm (not a test stub) and expects the same 500 containment.
func TestChaosTickPanic(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	restore := faultinject.PanicAtTick(1)
	defer restore()
	_, ts := newTestServer(t, Options{})
	defer shutdown(ts)

	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}}, MinSupport: 1,
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, data)
	}
}

// txStatus posts one transaction and returns the status code.
func txStatus(t *testing.T, url string, items []int) int {
	t.Helper()
	resp, _ := postJSON(t, url+"/tx", txRequest{Items: items})
	return resp.StatusCode
}

// TestChaosBreakerRecovery drives the full store-fault arc against a
// live server: a one-shot I/O fault latches the store and opens the
// breaker (503 + Retry-After), reads and mining keep working in the
// read-only degraded mode, /readyz flips to 503, and after the cooldown
// the half-open probe reopens the store from disk and recovers — with
// no acknowledged transaction lost.
func TestChaosBreakerRecovery(t *testing.T) {
	defer faultinject.LeakCheck(t)()

	// Calibrate: count the mutating FS ops of open + one append, so the
	// chaos run can aim its one-shot fault at the second append.
	counter := faultinject.NewFaultFS(persist.OS, 0, false)
	calSrv, calTS := newTestServer(t, Options{
		StoreDir:     t.TempDir(),
		StoreOptions: persist.Options{Items: 8, FS: counter, SnapshotEvery: -1},
	})
	defer shutdown(calTS)
	if got := txStatus(t, calTS.URL, []int{0, 1}); got != http.StatusOK {
		t.Fatalf("calibration /tx: status %d", got)
	}
	opsPerCycle := counter.Ops()
	_ = calSrv

	faultFS := faultinject.NewOneShotFaultFS(persist.OS, opsPerCycle+1)
	srv, ts := newTestServer(t, Options{
		StoreDir:        t.TempDir(),
		StoreOptions:    persist.Options{Items: 8, FS: faultFS, SnapshotEvery: -1},
		BreakerFailures: 1,
		BreakerCooldown: 30 * time.Millisecond,
	})
	defer shutdown(ts)

	if got := txStatus(t, ts.URL, []int{0, 1}); got != http.StatusOK {
		t.Fatalf("first /tx: status %d, want 200", got)
	}
	// Second append hits the injected fault: the store latches, the
	// breaker (threshold 1) opens.
	resp, data := postJSON(t, ts.URL+"/tx", txRequest{Items: []int{0, 2}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted /tx: status %d, want 503 (body %s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("faulted /tx carries no Retry-After")
	}
	if faultFS.Ops() < opsPerCycle+1 {
		t.Fatalf("injected fault never fired — calibration drifted (ops %d, fault at %d)",
			faultFS.Ops(), opsPerCycle+1)
	}

	// Open breaker: writes fail fast, readiness flips, reads still work.
	if got := txStatus(t, ts.URL, []int{0, 1}); got != http.StatusServiceUnavailable {
		t.Errorf("breaker-open /tx: status %d, want fast 503", got)
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz with open breaker: status %d, want 503", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/closed?support=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("read-only /closed during open breaker: status %d, body %s", r.StatusCode, body)
	}

	// After the cooldown the probe reopens the store (the one-shot
	// fault is spent) and the write goes through.
	waitFor(t, func() bool {
		return txStatus(t, ts.URL, []int{1, 2}) == http.StatusOK
	})
	if st := srv.store.stats(); st.Reopens != 1 || st.Latched || st.Breaker.State != "closed" {
		t.Errorf("store stats after recovery = %+v, want 1 reopen, healthy", st)
	}

	// No acknowledged transaction lost: the pre-fault append and the
	// post-recovery ones are all queryable. (The faulted append was
	// never acknowledged, so it must not count.)
	r, err = http.Get(ts.URL + "/closed?support=1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	mr := decodeMineResponse(t, mustRead(t, r.Body))
	// {0,1} was appended before the fault and once during recovery
	// polling at least; {1,2} at least once.
	var has01 bool
	for _, p := range mr.Patterns {
		if len(p.Items) == 2 && p.Items[0] == 0 && p.Items[1] == 1 {
			has01 = true
		}
	}
	if !has01 {
		t.Errorf("acknowledged pre-fault transaction missing from /closed: %v", mr.Patterns)
	}
}

func mustRead(t *testing.T, r io.Reader) []byte {
	t.Helper()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosSlowAndHungClients points a trickling client and a hung
// client at a live server and proves neither blocks healthy traffic
// nor holds an admission slot; closing the hung connection cleans up.
func TestChaosSlowAndHungClients(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv, ts := newTestServer(t, Options{MaxWeight: 1, MaxQueue: 0})
	defer shutdown(ts)

	dial := func() net.Conn {
		c, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return c
	}

	// Hung client: sends half a request line, then stalls forever.
	hung := faultinject.NewSlowConn(dial(), 0)
	if _, err := io.WriteString(hung, "POST /mine HTTP/1.1\r\nHost: x\r\nContent-Le"); err != nil {
		t.Fatalf("write: %v", err)
	}
	hung.Hang()
	defer hung.Close()

	// Slow client: trickles a full request with a per-op delay and must
	// still get an answer. Its last bytes wait until the healthy request
	// below has answered: the server admits a /mine request only once its
	// body is decoded, so a trickled request completing early would hold
	// the single slot and shed the healthy one.
	slow := faultinject.NewSlowConn(dial(), 2*time.Millisecond)
	defer slow.Close()
	healthyAnswered := make(chan struct{})
	var answered sync.Once
	releaseSlow := func() { answered.Do(func() { close(healthyAnswered) }) }
	defer releaseSlow()
	slowDone := make(chan string, 1)
	go func() {
		body := `{"transactions":[[0,1]],"minSupport":1}`
		req := "POST /mine HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n" +
			"Content-Length: " + itoa(len(body)) + "\r\nConnection: close\r\n\r\n" + body
		head, tail := req[:len(req)-4], req[len(req)-4:]
		if _, err := io.WriteString(slow, head); err != nil {
			slowDone <- "write: " + err.Error()
			return
		}
		<-healthyAnswered
		if _, err := io.WriteString(slow, tail); err != nil {
			slowDone <- "write: " + err.Error()
			return
		}
		resp, err := io.ReadAll(slow)
		if err != nil {
			slowDone <- "read: " + err.Error()
			return
		}
		slowDone <- string(resp)
	}()

	// Healthy traffic flows while both misbehaving clients are attached:
	// neither holds an admission slot (capacity is 1 with no queue, so a
	// held slot would shed this request).
	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1}}, MinSupport: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request alongside slow/hung clients: status %d, body %s",
			resp.StatusCode, data)
	}
	releaseSlow()

	if answer := <-slowDone; !strings.Contains(answer, "200 OK") {
		t.Errorf("slow client answer: %q, want a 200", answer)
	}
	if st := srv.gate.stats(); st.ActiveWeight != 0 {
		t.Errorf("active weight = %d after all requests, want 0", st.ActiveWeight)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestChaosDrainZeroLoss starts the graceful drain while a request is
// parked in a miner: readiness flips immediately, new work is rejected
// with 503, the parked request still completes with its full answer,
// and the drain writes a final snapshot.
func TestChaosDrainZeroLoss(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	release := armBlock()
	defer release()

	dir := t.TempDir()
	rec := &obs.Recorder{}
	srv, ts := newTestServer(t, Options{
		StoreDir:     dir,
		StoreOptions: persist.Options{Items: 8, SnapshotEvery: -1},
		Obs:          rec,
	})
	defer shutdown(ts)
	if got := txStatus(t, ts.URL, []int{0, 1}); got != http.StatusOK {
		t.Fatalf("/tx: status %d", got)
	}

	type answer struct {
		status int
		count  int
	}
	parked := make(chan answer, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
			Transactions: [][]int{{0, 1}}, MinSupport: 1, Algorithm: "test-block",
		})
		var mr mineResponse
		json.Unmarshal(data, &mr)
		parked <- answer{resp.StatusCode, mr.Count}
	}()
	waitFor(t, func() bool { return srv.gate.stats().Inflight == 1 })

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()
	waitFor(t, func() bool { return srv.latch.isDraining() })

	// Readiness flips and new work is rejected while the drain waits.
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status %d, want 503", r.StatusCode)
	}
	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0}}, MinSupport: 1,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request while draining: status %d, want 503 (body %s)", resp.StatusCode, data)
	}

	// The admitted request is not lost: release it, it completes fully.
	release()
	a := <-parked
	if a.status != http.StatusOK || a.count != 1 {
		t.Fatalf("parked request finished %d with %d patterns, want 200 with 1", a.status, a.count)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if srv.drained.Load() < 1 {
		t.Errorf("drained counter = %d, want >= 1", srv.drained.Load())
	}

	// The drain wrote a final snapshot generation.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps int
	for _, e := range names {
		if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".ista") {
			snaps++
		}
	}
	if snaps == 0 {
		t.Errorf("no snapshot in %s after drain (entries: %v)", dir, names)
	}

	// The drain span was emitted.
	var sawDrain bool
	for _, sp := range rec.Spans() {
		if sp.Phase == obs.PhaseDrain {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Errorf("no %q span recorded", obs.PhaseDrain)
	}
}
