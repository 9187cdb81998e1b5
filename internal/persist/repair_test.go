// Auto-repair conformance for the durable store, from outside the
// package (faultinject imports persist, so these tests live in
// persist_test to use both): the startup sweep of orphaned temp files,
// quarantine of damaged snapshot generations, and the latch-then-reopen
// path after a one-shot I/O fault.
package persist_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/persist"
)

func repairStream(items, n int) []itemset.Set {
	out := make([]itemset.Set, n)
	for i := range out {
		out[i] = itemset.FromInts(i%items, (i*3+1)%items, (i*7+2)%items)
	}
	return out
}

func repairSnapName(step uint64) string { return fmt.Sprintf("snap-%016d.ista", step) }

// TestRepairSweepOrphanTemps proves the startup sweep: stale .tmp files
// — including one that is byte-for-byte a valid snapshot — are removed
// on open, reported in the RepairReport, and never mistaken for a
// generation.
func TestRepairSweepOrphanTemps(t *testing.T) {
	const items, n = 8, 12
	trans := repairStream(items, n)
	dir := t.TempDir()

	d, err := persist.Open(dir, persist.Options{Items: items, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trans {
		if err := d.AddSet(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant orphans: garbage temp files and — the trap — a copy of the
	// real snapshot under a .tmp name claiming a much later step. If the
	// sweep ever parsed temp names as generations, recovery would jump to
	// step 9000 and the transaction count below would expose it.
	snapBytes, err := os.ReadFile(filepath.Join(dir, repairSnapName(uint64(n))))
	if err != nil {
		t.Fatal(err)
	}
	orphans := []string{
		repairSnapName(9000) + ".tmp",
		"wal-0000000000009000.log.tmp",
		"snap-garbage.tmp",
	}
	for _, name := range orphans {
		body := []byte("leftover")
		if strings.HasPrefix(name, "snap-0") {
			body = snapBytes
		}
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d, err = persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Transactions(); got != n {
		t.Fatalf("recovered %d transactions, want %d (a temp file was treated as state)", got, n)
	}
	rep := d.RepairReport()
	if len(rep.SweptTemp) != len(orphans) {
		t.Fatalf("report lists %d swept temps %v, want %d", len(rep.SweptTemp), rep.SweptTemp, len(orphans))
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived the sweep (stat err = %v)", name, err)
		}
	}
	if len(rep.Skipped) != 0 || len(rep.Quarantined) != 0 {
		t.Errorf("sweep-only open reports skips/quarantines: %s", rep.String())
	}
}

// TestRepairQuarantine damages the newest snapshot and requires recovery
// to fall back a generation; with Repair set the damaged file is renamed
// aside (and invisible to the next open), without Repair it stays put —
// either way nothing durable is lost and the report says what happened.
func TestRepairQuarantine(t *testing.T) {
	const items, n = 9, 27
	trans := repairStream(items, n)

	for _, repair := range []bool{true, false} {
		t.Run(fmt.Sprintf("repair=%v", repair), func(t *testing.T) {
			dir := t.TempDir()
			d, err := persist.Open(dir, persist.Options{Items: items, SnapshotEvery: 10})
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

			// Snapshots exist at steps 10 and 20; corrupt the newest.
			bad := repairSnapName(20)
			if err := faultinject.FlipBit(filepath.Join(dir, bad), 40, 3); err != nil {
				t.Fatal(err)
			}

			d, err = persist.Open(dir, persist.Options{Repair: repair})
			if err != nil {
				t.Fatalf("fallback recovery failed: %v", err)
			}
			if got := d.Transactions(); got != n {
				t.Fatalf("recovered %d transactions, want %d", got, n)
			}
			rep := d.RepairReport()
			if len(rep.Skipped) == 0 {
				t.Fatalf("report shows no skipped generation: %s", rep.String())
			}
			if !strings.Contains(rep.Skipped[0].String(), bad) {
				t.Errorf("skip report %q does not name %s", rep.Skipped[0].String(), bad)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			_, statBad := os.Stat(filepath.Join(dir, bad))
			_, statQuar := os.Stat(filepath.Join(dir, bad+persist.QuarantineSuffix))
			if repair {
				if len(rep.Quarantined) != 1 || rep.Quarantined[0] != bad+persist.QuarantineSuffix {
					t.Errorf("report quarantined %v, want [%s]", rep.Quarantined, bad+persist.QuarantineSuffix)
				}
				if !errors.Is(statBad, os.ErrNotExist) || statQuar != nil {
					t.Errorf("quarantine did not rename %s aside (orig err %v, quarantined err %v)", bad, statBad, statQuar)
				}
			} else {
				if len(rep.Quarantined) != 0 {
					t.Errorf("Repair off but report quarantined %v", rep.Quarantined)
				}
				if statBad != nil || !errors.Is(statQuar, os.ErrNotExist) {
					t.Errorf("Repair off but %s was moved (orig err %v, quarantined err %v)", bad, statBad, statQuar)
				}
			}

			// The next open must recover identically again (from the
			// quarantined layout or past the still-present damage).
			d, err = persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatalf("re-open after repair=%v failed: %v", repair, err)
			}
			if got := d.Transactions(); got != n {
				t.Errorf("second recovery holds %d transactions, want %d", got, n)
			}
			d.Close()
		})
	}
}

// TestRepairOneShotIOSweep injects one one-shot fault at every mutating
// file-system operation of an explicit Snapshot. The store has no I/O
// retry, so every position must land in the one documented outcome:
// Snapshot fails with the injected error, the store latches it, and a
// reopen on the same (now healthy) file system recovers every
// acknowledged transaction.
func TestRepairOneShotIOSweep(t *testing.T) {
	const items, n = 8, 8
	trans := repairStream(items, n)

	session := func(dir string, fs persist.FS) (*persist.Durable, error) {
		d, err := persist.Open(dir, persist.Options{Items: items, SnapshotEvery: -1, FS: fs})
		if err != nil {
			return nil, err
		}
		for _, tr := range trans {
			if err := d.AddSet(tr); err != nil {
				d.Close()
				return nil, err
			}
		}
		return d, nil
	}

	// Calibrate: count the mutating ops before and after the Snapshot
	// call on a clean run, so faults are injected only inside it.
	count := faultinject.NewFaultFS(persist.OS, 0, false)
	d, err := session(t.TempDir(), count)
	if err != nil {
		t.Fatal(err)
	}
	before := count.Ops()
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after := count.Ops()
	d.Close()
	if after <= before {
		t.Fatalf("snapshot performed no mutating ops (%d..%d)", before, after)
	}

	for failAt := before + 1; failAt <= after; failAt++ {
		dir := t.TempDir()
		fs := faultinject.NewOneShotFaultFS(persist.OS, failAt)
		d, err := session(dir, fs)
		if err != nil {
			t.Fatalf("failAt=%d: fault fired before the snapshot phase: %v", failAt, err)
		}
		serr := d.Snapshot()
		if !errors.Is(serr, faultinject.ErrIO) {
			t.Fatalf("failAt=%d: snapshot error = %v, want the injected fault", failAt, serr)
		}
		if d.Err() == nil {
			t.Errorf("failAt=%d: snapshot failed but the store did not latch", failAt)
		}
		if err := d.AddSet(trans[0]); !errors.Is(err, faultinject.ErrIO) {
			t.Errorf("failAt=%d: add after the fault = %v, want the latched error", failAt, err)
		}
		d.Close()

		d2, err := persist.Open(dir, persist.Options{FS: fs})
		if err != nil {
			t.Fatalf("failAt=%d: reopen failed: %v", failAt, err)
		}
		if got := d2.Transactions(); got != n {
			t.Errorf("failAt=%d: reopen holds %d transactions, want %d", failAt, got, n)
		}
		d2.Close()
	}
}
