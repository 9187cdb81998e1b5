package persist

import (
	"testing"

	"repro/internal/itemset"
	"repro/internal/obs"
)

// TestDurableObsSpans verifies that the store emits a span per snapshot
// write and log rotation, a recover span on reopen, and that Snapshots()
// counts this handle's snapshot writes.
func TestDurableObsSpans(t *testing.T) {
	dir := t.TempDir()
	var rec obs.Recorder
	d, err := Open(dir, Options{Items: 8, SnapshotEvery: 4, Obs: &rec})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store still runs (an empty) recovery.
	if n := countSpans(rec.Spans(), obs.PhaseRecover); n != 1 {
		t.Fatalf("recover spans on fresh open = %d, want 1", n)
	}
	if d.Snapshots() != 0 {
		t.Fatalf("fresh store Snapshots() = %d", d.Snapshots())
	}

	trans := stream(8, 10, 3)
	addAll(t, d, trans)
	// 10 adds at cadence 4 → automatic snapshots after 4 and 8.
	if got := d.Snapshots(); got != 2 {
		t.Fatalf("Snapshots() after 10 adds = %d, want 2", got)
	}
	// An explicit snapshot at a new step counts too.
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Snapshot at an unchanged step is a no-op: no span, no count.
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := d.Snapshots(); got != 3 {
		t.Fatalf("Snapshots() = %d, want 3", got)
	}
	spans := rec.Spans()
	if n := countSpans(spans, obs.PhaseSnapshot); n != 3 {
		t.Fatalf("snapshot spans = %d, want 3", n)
	}
	if n := countSpans(spans, obs.PhaseRotate); n != 3 {
		t.Fatalf("rotate spans = %d, want 3", n)
	}
	for _, s := range spans {
		if s.Phase == obs.PhaseSnapshot && s.NodesPeak <= 0 {
			t.Fatalf("snapshot span carries no node count: %+v", s)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a sink: recovery emits its span; the snapshot count
	// restarts per handle.
	var rec2 obs.Recorder
	d2, err := Open(dir, Options{Items: 8, Obs: &rec2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n := countSpans(rec2.Spans(), obs.PhaseRecover); n != 1 {
		t.Fatalf("recover spans on reopen = %d, want 1", n)
	}
	if d2.Snapshots() != 0 {
		t.Fatalf("reopened handle Snapshots() = %d, want 0", d2.Snapshots())
	}
	requireState(t, d2, 8, trans, len(trans))
}

// TestDurableNoSink pins that a store without a sink works unchanged (the
// nil-sink fast path of obs.EmitSpan).
func TestDurableNoSink(t *testing.T) {
	d, err := Open(t.TempDir(), Options{Items: 5, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Add(itemset.Item(0), itemset.Item(2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(itemset.Item(1)); err != nil {
		t.Fatal(err)
	}
	if d.Snapshots() != 1 {
		t.Fatalf("Snapshots() = %d, want 1", d.Snapshots())
	}
}

func countSpans(spans []obs.Span, phase string) int {
	n := 0
	for _, s := range spans {
		if s.Phase == phase {
			n++
		}
	}
	return n
}
