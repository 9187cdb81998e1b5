package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/itemset"
)

// oracle mines the closed sets of a stream prefix from scratch.
func oracle(t *testing.T, items int, trans []itemset.Set, minsup int) *core.Incremental {
	t.Helper()
	return miner(t, items, trans)
}

func addAll(t *testing.T, d *Durable, trans []itemset.Set) {
	t.Helper()
	for _, tr := range trans {
		if err := d.AddSet(tr); err != nil {
			t.Fatal(err)
		}
	}
}

// requireState checks that d holds exactly the first n transactions of
// trans, cross-checked against a from-scratch miner at several support
// levels.
func requireState(t *testing.T, d *Durable, items int, trans []itemset.Set, n int) {
	t.Helper()
	if d.Transactions() != n {
		t.Fatalf("recovered %d transactions, want %d", d.Transactions(), n)
	}
	om := miner(t, items, trans[:n])
	for _, minsup := range []int{1, 2, (n + 1) / 2, n} {
		want, have := om.ClosedSet(minsup), d.ClosedSet(minsup)
		if !have.Equal(want) {
			t.Fatalf("minsup=%d: recovered closed sets differ from oracle:\n%s", minsup, have.Diff(want, 10))
		}
	}
}

// TestDurableReopen covers the plain lifecycle: open, add, close,
// reopen, continue — across several snapshot cadences, including none.
func TestDurableReopen(t *testing.T) {
	const items = 12
	trans := stream(items, 53, 21)
	for _, every := range []int{-1, 1, 7, 100} {
		dir := t.TempDir()
		opt := Options{Items: items, SnapshotEvery: every}
		d, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		addAll(t, d, trans[:30])
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, err = Open(dir, opt)
		if err != nil {
			t.Fatalf("every=%d: reopen: %v", every, err)
		}
		requireState(t, d, items, trans, 30)
		addAll(t, d, trans[30:])
		if err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("every=%d: second reopen: %v", every, err)
		}
		requireState(t, d, items, trans, len(trans))
		d.Close()
	}
}

// TestDurableCrashWithoutClose drops the store on the floor (no Close,
// no final snapshot) and reopens: with SyncEvery 1 every acknowledged
// transaction must come back.
func TestDurableCrashWithoutClose(t *testing.T) {
	const items = 10
	trans := stream(items, 41, 8)
	dir := t.TempDir()
	d, err := Open(dir, Options{Items: items, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, d, trans)
	// Simulated crash: the store is simply abandoned.
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireState(t, d2, items, trans, len(trans))
	d2.Close()
}

// TestDurableGenerationPruning checks that old snapshots and dead WAL
// segments are deleted, and that what remains still recovers.
func TestDurableGenerationPruning(t *testing.T) {
	const items = 8
	trans := stream(items, 90, 17)
	dir := t.TempDir()
	d, err := Open(dir, Options{Items: items, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, d, trans)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var snaps, wals int
	names, err := OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "snap-"):
			snaps++
		case strings.HasPrefix(name, "wal-"):
			wals++
		}
	}
	if snaps > 2 {
		t.Errorf("pruning left %d snapshots, want <= 2", snaps)
	}
	if wals > 3 {
		t.Errorf("pruning left %d WAL segments, want <= 3", wals)
	}
	d, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireState(t, d, items, trans, len(trans))
	d.Close()
}

// TestDurableSnapshotFallback damages the newest snapshot on disk and
// requires recovery to fall back to the previous generation plus the
// log — losing nothing.
func TestDurableSnapshotFallback(t *testing.T) {
	const items = 9
	trans := stream(items, 27, 30)
	dir := t.TempDir()
	d, err := Open(dir, Options{Items: items, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, d, trans) // snapshots at 10 and 20, tail 21..27 in the log
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(20))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	requireState(t, d, items, trans, len(trans))
	d.Close()
}

// TestDurableUniverse pins the universe rules: an existing store
// ignores a smaller requested universe and rejects a larger one.
func TestDurableUniverse(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Items: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(1, 5); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if d, err = Open(dir, Options{Items: 3}); err != nil {
		t.Fatalf("smaller universe should open: %v", err)
	}
	if d.Items() != 6 {
		t.Fatalf("recovered universe %d, want 6", d.Items())
	}
	d.Close()
	if _, err = Open(dir, Options{Items: 9}); err == nil {
		t.Fatal("larger universe must be rejected")
	}
}

// TestDurableRejectsBadInput pins the validation path: out-of-universe
// and non-canonical transactions fail without touching the log.
func TestDurableRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSet(itemset.Set{2, 1}); err == nil {
		t.Fatal("non-canonical transaction accepted")
	}
	if err := d.AddSet(itemset.Set{1, 9}); err == nil {
		t.Fatal("out-of-universe transaction accepted")
	}
	if err := d.Add(0, 3); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Transactions() != 1 {
		t.Fatalf("rejected transactions leaked into the log: %d", d.Transactions())
	}
	d.Close()
}
