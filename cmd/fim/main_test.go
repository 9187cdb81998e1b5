package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildTool compiles one of this repository's commands into dir and
// returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// writeDataset writes a small FIMI database and returns its path.
func writeDataset(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "db.dat")
	var sb strings.Builder
	// 60 transactions over 8 items with heavy overlap, so snapshots and
	// a non-trivial pattern set both happen.
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "0 1 %d\n", 2+i%6)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(t *testing.T, bin string, stdin io.Reader, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = stdin
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v", bin, err)
	}
	return out.String(), errb.String(), code
}

// TestSnapshotDirStats verifies the -stats -snapshot-dir fix: the
// durable path must report real counters (added, snapshots, patterns)
// instead of zeroed ones, and a resumed run must report the replayed
// count.
func TestSnapshotDirStats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	fim := buildTool(t, dir, "fim")
	db := writeDataset(t, dir)
	snap := filepath.Join(dir, "state")

	_, stderr, code := run(t, fim, nil, "-support", "2", "-stats",
		"-snapshot-dir", snap, "-snapshot-every", "16", db)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	stats := statsLine(t, stderr)
	for _, want := range []string{"algo=ista", "added=60", "replayed=0"} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats line missing %q: %s", want, stats)
		}
	}
	if m := regexp.MustCompile(`snapshots=(\d+)`).FindStringSubmatch(stats); m == nil || m[1] == "0" {
		t.Errorf("stats line reports no snapshots: %s", stats)
	}
	if m := regexp.MustCompile(`patterns=(\d+)`).FindStringSubmatch(stats); m == nil || m[1] == "0" {
		t.Errorf("stats line reports no patterns: %s", stats)
	}

	// Resume: everything is already durable, so all 60 replay.
	_, stderr, code = run(t, fim, nil, "-support", "2", "-stats",
		"-snapshot-dir", snap, "-resume", db)
	if code != 0 {
		t.Fatalf("resume exit %d\n%s", code, stderr)
	}
	stats = statsLine(t, stderr)
	for _, want := range []string{"replayed=60", "added=0"} {
		if !strings.Contains(stats, want) {
			t.Errorf("resume stats line missing %q: %s", want, stats)
		}
	}
}

// statsLine extracts the counter line ("fim: algo=...") from stderr.
func statsLine(t *testing.T, stderr string) string {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "fim: algo=") {
			return line
		}
	}
	t.Fatalf("no stats line in stderr:\n%s", stderr)
	return ""
}

// TestProgressFlag verifies that -progress emits at least the final
// monotone snapshot and that the pattern output is unaffected.
func TestProgressFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	fim := buildTool(t, dir, "fim")
	db := writeDataset(t, dir)

	plain, _, code := run(t, fim, nil, "-support", "2", db)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	stdout, stderr, code := run(t, fim, nil, "-support", "2", "-progress", "-p", "4", db)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if stdout != plain {
		t.Error("-progress -p 4 changed the pattern output")
	}
	re := regexp.MustCompile(`fim: progress elapsed=\S+ patterns=(\d+) ops=\d+ checks=\d+ nodes_peak=\d+ isects=\d+ early_stops=\d+ rep_switches=\d+ retries=\d+ degraded=\d+( final)?`)
	matches := re.FindAllStringSubmatch(stderr, -1)
	if len(matches) == 0 {
		t.Fatalf("no progress lines in stderr:\n%s", stderr)
	}
	last := matches[len(matches)-1]
	if last[2] != " final" {
		t.Errorf("last progress line not final:\n%s", stderr)
	}
}

// TestDebugAddr starts fim with -debug-addr reading the database from
// stdin (so the process deterministically stays alive), fetches
// /debug/vars and /debug/pprof/, then feeds the database and expects a
// clean exit with the run's metrics published.
func TestDebugAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	fim := buildTool(t, dir, "fim")
	data, err := os.ReadFile(writeDataset(t, dir))
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(fim, "-support", "2", "-debug-addr", "127.0.0.1:0", "-")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	var stderr lockedBuffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	addr := waitForAddr(t, &stderr)
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if path == "/debug/vars" && !strings.Contains(string(body), "cmdline") {
			t.Fatalf("/debug/vars lacks expvar output: %.200s", body)
		}
	}

	if _, err := stdin.Write(data); err != nil {
		t.Fatal(err)
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("fim exited with %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "(60)") {
		t.Errorf("pattern output missing a full-support set:\n%s", stdout.String())
	}

	// The run published its counters into the expvar map before exit; we
	// cannot query the dead process, but the mine must at least have
	// produced patterns — rely on stdout above for that.
}

// lockedBuffer collects a child's stderr safely while the process is
// still writing it: exec.Cmd copies the output on its own goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForAddr polls stderr for the debug server's listen line and
// returns the host:port.
func waitForAddr(t *testing.T, stderr *lockedBuffer) string {
	t.Helper()
	re := regexp.MustCompile(`listening on http://([^/]+)/debug/vars`)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("debug server never announced its address:\n%s", stderr.String())
	return ""
}

// TestWriterFailuresExitNonZero verifies the write-error audit: fimdiff
// and fimgen must exit non-zero when their output cannot be written
// (/dev/full), and fim must fail cleanly on an unwritable -out.
func TestWriterFailuresExitNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	dir := t.TempDir()
	fim := buildTool(t, dir, "fim")
	fimdiff := buildTool(t, dir, "fimdiff")
	fimgen := buildTool(t, dir, "fimgen")
	db := writeDataset(t, dir)

	// Produce a result file for fimdiff.
	res := filepath.Join(dir, "res.txt")
	if _, stderr, code := run(t, fim, nil, "-support", "2", "-out", res, db); code != 0 {
		t.Fatalf("fim exit %d\n%s", code, stderr)
	}

	// fimdiff with a full stdout: the identical-verdict must not exit 0.
	cmd := exec.Command(fimdiff, res, res)
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	cmd.Stdout = full
	var diffErr bytes.Buffer
	cmd.Stderr = &diffErr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("fimdiff with full stdout: err=%v stderr=%s (want exit 2)", err, diffErr.String())
	}

	// fimgen writing to /dev/full must exit 1.
	_, _, code := run(t, fimgen, nil, "-kind", "quest", "-items", "20", "-trans", "100", "-out", "/dev/full")
	if code != 1 {
		t.Errorf("fimgen -out /dev/full exit %d, want 1", code)
	}

	// fim writing its patterns to /dev/full must exit 1.
	_, _, code = run(t, fim, nil, "-support", "2", "-out", "/dev/full", db)
	if code != 1 {
		t.Errorf("fim -out /dev/full exit %d, want 1", code)
	}
}

// TestInterruptFlushesPartial sends SIGINT to a durable-path run mid-feed
// and requires the documented interrupt behavior: the process stops
// cooperatively, writes the valid partial output it has, exits 3, and a
// -resume rerun completes to exactly the result an uninterrupted run
// produces.
func TestInterruptFlushesPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	fim := buildTool(t, dir, "fim")

	// A stream long enough that the fsync-per-add feed far outlives the
	// signal delivery below.
	db := filepath.Join(dir, "big.dat")
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "0 1 %d %d\n", 2+i%6, 8+i%5)
	}
	if err := os.WriteFile(db, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "state")

	cmd := exec.Command(fim, "-support", "2", "-snapshot-dir", snap, db)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted run exited cleanly — the feed finished before the signal; stderr:\n%s", errb.String())
	}
	if code := ee.ExitCode(); code != 3 {
		t.Fatalf("interrupted run exit %d, want 3; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "truncated") {
		t.Errorf("stderr does not report truncation:\n%s", errb.String())
	}
	// The flushed partial output is well-formed: every line is items
	// followed by a support in parentheses.
	lineRE := regexp.MustCompile(`^[0-9 ]+ \(\d+\)$`)
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if line != "" && !lineRE.MatchString(line) {
			t.Fatalf("malformed partial output line %q", line)
		}
	}

	// Resume and compare against an uninterrupted batch run.
	resumed, stderr, code := run(t, fim, nil, "-support", "2",
		"-snapshot-dir", snap, "-resume", db)
	if code != 0 {
		t.Fatalf("resume exit %d\n%s", code, stderr)
	}
	batch, stderr, code := run(t, fim, nil, "-support", "2", db)
	if code != 0 {
		t.Fatalf("batch exit %d\n%s", code, stderr)
	}
	if resumed != batch {
		t.Errorf("resumed result differs from uninterrupted batch run:\nresumed:\n%s\nbatch:\n%s", resumed, batch)
	}
}

// TestInputLimitsExitTwo covers the hardened reader flags on both input
// paths: a violating transaction (stdin or file) exits 2 and the error
// names the offending input line, while at-limit inputs mine normally.
func TestInputLimitsExitTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	fimBin := buildTool(t, dir, "fim")

	// Stdin path: line 3 (the comment counts) exceeds -max-tx-len.
	stdin := strings.NewReader("0 1\n# note\n0 1 2 3 4\n")
	_, stderr, code := run(t, fimBin, stdin, "-support", "1", "-max-tx-len", "4", "-")
	if code != 2 {
		t.Fatalf("stdin over -max-tx-len: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "line 3") {
		t.Errorf("stderr %q does not name line 3", stderr)
	}

	// File path: a huge item code trips -max-items before any allocation
	// is sized by it.
	path := filepath.Join(dir, "big.dat")
	if err := os.WriteFile(path, []byte("0 1\n7 2000000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = run(t, fimBin, nil, "-support", "1", "-max-items", "1000", path)
	if code != 2 {
		t.Fatalf("file over -max-items: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "line 2") || !strings.Contains(stderr, path) {
		t.Errorf("stderr %q does not name line 2 of %s", stderr, path)
	}

	// At the limit everything still mines.
	stdout, stderr, code := run(t, fimBin, strings.NewReader("0 1 2\n0 1\n"),
		"-support", "2", "-max-tx-len", "3", "-max-items", "3", "-")
	if code != 0 {
		t.Fatalf("at-limit input: exit %d (stderr %q)", code, stderr)
	}
	if !strings.Contains(stdout, "0 1") {
		t.Errorf("at-limit output %q misses the expected pattern", stdout)
	}
}

// TestSnapshotDirRejectsRetries pins the usage check: the durable path
// has no parallel shards to re-mine, so -retries with -snapshot-dir is a
// bad flag combination (exit 2), like -p.
func TestSnapshotDirRejectsRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	fimBin := buildTool(t, dir, "fim")
	db := writeDataset(t, dir)
	snap := filepath.Join(dir, "snap")
	_, stderr, code := run(t, fimBin, nil, "-support", "2", "-snapshot-dir", snap, "-retries", "2", db)
	if code != 2 {
		t.Fatalf("-retries with -snapshot-dir: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "-retries") {
		t.Errorf("stderr %q does not name -retries", stderr)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("rejected run touched %s (stat err %v)", snap, err)
	}
}
