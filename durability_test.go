// Recovery conformance suite: every point at which a crash can
// interrupt the durable miner's I/O is exercised — by failing the k-th
// mutating file-system operation (cleanly or with a torn write) and by
// flipping bits in the files a clean session leaves behind — and
// recovery after each is cross-checked against a from-scratch miner
// over the recovered prefix. The invariant under test is the one
// DESIGN.md §5d states: reopen restores a consistent prefix of the
// stream containing every acknowledged transaction, or fails with
// ErrCorrupt; it never panics and never fabricates state.
package fim

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/persist"
	"repro/internal/txdb"
)

// durStream builds a reproducible transaction stream.
func durStream(items, n int, seed int64) []ItemSet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ItemSet, n)
	for i := range out {
		t := make([]Item, rng.Intn(6))
		for j := range t {
			t[j] = Item(rng.Intn(items))
		}
		out[i] = itemset.New(t...)
	}
	return out
}

// durOracle mines the closed sets of a stream prefix from scratch with
// the batch engine — an independent path from the incremental miner the
// store recovers into.
func durOracle(t *testing.T, items int, prefix []ItemSet) map[int]*ResultSet {
	t.Helper()
	db := universe(items, prefix...)
	n := len(prefix)
	out := make(map[int]*ResultSet)
	for _, minsup := range []int{1, 2, (n + 1) / 2, n} {
		if minsup < 1 {
			minsup = 1
		}
		if _, ok := out[minsup]; ok {
			continue
		}
		rs, err := MineClosed(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		out[minsup] = rs
	}
	return out
}

// checkRecovered verifies that d holds exactly trans[:n] by comparing
// its closed sets against the batch oracle at several thresholds.
func checkRecovered(t *testing.T, d *persist.Durable, items int, trans []ItemSet, n int) {
	t.Helper()
	for minsup, want := range durOracle(t, items, trans[:n]) {
		if have := d.ClosedSet(minsup); !have.Equal(want) {
			t.Fatalf("minsup=%d over %d recovered transactions: closed sets differ from batch oracle:\n%s",
				minsup, n, have.Diff(want, 10))
		}
	}
}

// crashSession opens a store on a faulty file system and feeds it the
// stream until a fault (or the end), returning how many Adds were
// acknowledged. The store is abandoned, as a crash would.
func crashSession(dir string, fs persist.FS, trans []ItemSet, opt persist.Options) (acked int) {
	opt.FS = fs
	d, err := persist.Open(dir, opt)
	if err != nil {
		return 0
	}
	for _, tr := range trans {
		if err := d.AddSet(tr); err != nil {
			break
		}
		acked++
	}
	return acked
}

// TestCrashPointSweep fails every mutating file-system operation of a
// full session in turn — once as a clean error, once as a torn
// (half-completed) write — and requires reopen on the real files to
// recover a consistent prefix: at least every acknowledged transaction,
// at most one past them (an Add whose record reached the log before its
// error), matching the batch oracle exactly. Pure crash faults must
// never surface as ErrCorrupt.
func TestCrashPointSweep(t *testing.T) {
	const items = 10
	trans := durStream(items, 40, 77)
	opt := persist.Options{Items: items, SnapshotEvery: 7}

	// Sizing pass: count the mutating operations of a fault-free run.
	counter := faultinject.NewFaultFS(persist.OS, 0, false)
	dir := t.TempDir()
	if acked := crashSession(dir, counter, trans, opt); acked != len(trans) {
		t.Fatalf("clean run acknowledged %d of %d transactions", acked, len(trans))
	}
	total := counter.Ops()
	if total < 50 {
		t.Fatalf("suspiciously few mutating operations: %d", total)
	}

	stride := int64(1)
	if testing.Short() {
		stride = 3
	}
	for _, short := range []bool{false, true} {
		for k := int64(1); k <= total; k += stride {
			dir := t.TempDir()
			ffs := faultinject.NewFaultFS(persist.OS, k, short)
			acked := crashSession(dir, ffs, trans, opt)

			d, err := persist.Open(dir, persist.Options{FS: persist.OS})
			if err != nil {
				t.Fatalf("fail op %d (short=%v): reopen after crash failed: %v", k, short, err)
			}
			n := d.Transactions()
			if n < acked || n > acked+1 || n > len(trans) {
				t.Fatalf("fail op %d (short=%v): recovered %d transactions, acknowledged %d", k, short, n, acked)
			}
			checkRecovered(t, d, items, trans, n)
			d.Close()
		}
	}
}

// TestBitFlipRecovery closes a store cleanly, then flips a bit at every
// offset of every file it left behind: reopen must either fail with
// ErrCorrupt or recover a valid prefix — everything, or everything but
// the final transaction when the flip mimics a torn final record —
// and must never panic or deliver wrong closed sets.
func TestBitFlipRecovery(t *testing.T) {
	const items = 9
	trans := durStream(items, 33, 12)
	dir := t.TempDir()
	d, err := persist.Open(dir, persist.Options{Items: items, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trans {
		if err := d.AddSet(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := persist.OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < info.Size(); off += int64(stride) {
			if err := faultinject.FlipBit(path, off, uint(off)%8); err != nil {
				t.Fatal(err)
			}
			d, err := persist.Open(dir, persist.Options{FS: persist.OS})
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s offset %d: reopen error not ErrCorrupt: %v", name, off, err)
				}
			} else {
				n := d.Transactions()
				if n < len(trans)-1 || n > len(trans) {
					t.Fatalf("%s offset %d: flip silently dropped to %d of %d transactions", name, off, n, len(trans))
				}
				checkRecovered(t, d, items, trans, n)
				d.Close()
			}
			if err := faultinject.FlipBit(path, off, uint(off)%8); err != nil {
				t.Fatal(err) // restore for the next offset
			}
		}
	}
}

// TestOpenDurableFacade exercises the public fim surface end to end:
// write through one DurableMiner, crash (abandon it), recover through
// OpenDurable, and continue mining.
func TestOpenDurableFacade(t *testing.T) {
	const items = 8
	trans := durStream(items, 26, 5)
	dir := t.TempDir()
	dm, err := OpenDurable(dir, DurableOptions{Items: items, SnapshotEvery: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trans[:17] {
		if err := dm.AddSet(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, no Snapshot.
	dm, err = OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Transactions() != 17 {
		t.Fatalf("recovered %d transactions, want 17", dm.Transactions())
	}
	for _, tr := range trans[17:] {
		if err := dm.AddSet(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := dm.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}
	dm, err = OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	oracle := durOracle(t, items, trans)
	for minsup, want := range oracle {
		if have := dm.ClosedSet(minsup); !have.Equal(want) {
			t.Fatalf("minsup=%d: recovered closed sets differ:\n%s", minsup, have.Diff(want, 10))
		}
	}
}

// universe builds a database over items with the given rows.
func universe(items int, rows ...ItemSet) *Database {
	b := txdb.NewBuilder(len(rows), 0)
	b.SetNumItems(items)
	for _, t := range rows {
		b.AddSet(t)
	}
	return b.Build()
}

// TestSnapshotRoundTripDatasets round-trips IncrementalMiner snapshots
// across generated benchmark-family datasets and hand-built edge cases,
// checking the restored miner's closed sets at several thresholds and
// that it keeps mining identically after restore.
func TestSnapshotRoundTripDatasets(t *testing.T) {
	dbs := map[string]Source{
		"empty":       universe(5),
		"single":      universe(5, itemset.New(0, 2, 4)),
		"empty-trans": universe(3, ItemSet{}, ItemSet{}),
		"quest": GenQuest(QuestConfig{
			Items: 40, Transactions: 120, AvgLen: 8,
			Patterns: 10, AvgPatternLen: 4, Seed: 3,
		}),
		"yeast": GenYeast(0.02, 11),
	}
	for name, db := range dbs {
		n := db.NumTx()
		cut := n / 2
		m := NewIncrementalMiner(db.NumItems())
		for k := 0; k < cut; k++ {
			if err := m.AddSet(db.Tx(k)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatalf("%s: snapshot: %v", name, err)
		}
		got, err := RestoreIncrementalMiner(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if got.Transactions() != cut || got.Items() != db.NumItems() || got.NodeCount() != m.NodeCount() {
			t.Fatalf("%s: restored state differs: %d/%d trans, %d/%d items, %d/%d nodes", name,
				got.Transactions(), cut, got.Items(), db.NumItems(), got.NodeCount(), m.NodeCount())
		}
		// Both miners continue over the second half and must agree with
		// the batch oracle on the full database.
		for k := cut; k < n; k++ {
			if err := m.AddSet(db.Tx(k)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := got.AddSet(db.Tx(k)); err != nil {
				t.Fatalf("%s: restored miner rejected transaction: %v", name, err)
			}
		}
		for _, minsup := range []int{1, 2, n} {
			if minsup < 1 {
				minsup = 1
			}
			want, err := MineClosed(db, minsup)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if have := got.ClosedSet(minsup); !have.Equal(want) {
				t.Fatalf("%s minsup=%d: restored miner diverged from batch oracle:\n%s", name, minsup, have.Diff(want, 10))
			}
		}
	}
}
