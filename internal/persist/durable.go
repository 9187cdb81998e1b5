package persist

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/result"
	"repro/internal/retry"
)

// Options configures a Durable store.
type Options struct {
	// Items is the item universe size, required when the directory holds
	// no prior state. When state exists, the recovered universe wins; a
	// larger requested universe fails (the stored tree cannot represent
	// the new codes).
	Items int
	// SnapshotEvery writes a snapshot and rotates the WAL every n
	// transactions; 0 uses 1024, negative disables periodic snapshots
	// (Snapshot can still be called explicitly).
	SnapshotEvery int
	// SyncEvery fsyncs the WAL every n appends; 0 and 1 sync every
	// append (every acknowledged Add is durable), larger values trade
	// durability of the last n-1 transactions for throughput.
	SyncEvery int
	// Keep is the number of snapshot generations retained (older
	// snapshots and the WAL segments covered only by them are deleted
	// after a successful snapshot); 0 uses 2. Keeping at least two lets
	// recovery fall back to the previous generation if the newest
	// snapshot is damaged on disk.
	Keep int
	// FS overrides the file system (fault injection); nil uses the OS.
	FS FS
	// Obs, when non-nil, receives a span for every recovery (phase
	// "recover", on Open), snapshot write ("snapshot") and WAL rotation
	// ("rotate"), each carrying the prefix-tree node count, plus a note
	// for every retry and repair action. Nil costs nothing.
	Obs obs.Sink
	// Retry, when enabled, re-runs transient snapshot-write and
	// WAL-rotation I/O failures (classified by retry.IsTransient) before
	// latching the store. WAL appends are never retried — a failed append
	// may have left a torn tail, and appending again after it would frame
	// a gap — and fsync failures are always fail-stop (the kernel page
	// cache state is unknowable after one).
	Retry retry.Policy
	// Repair, when set, lets Open quarantine a corrupt newest snapshot
	// (rename it aside with QuarantineSuffix) once recovery has succeeded
	// from an older generation, so the next open does not trip over it
	// again. The quarantine never runs when recovery failed outright —
	// the damaged files are then the only evidence left.
	Repair bool
}

func (o *Options) fill() {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	if o.SyncEvery < 1 {
		o.SyncEvery = 1
	}
	if o.Keep < 1 {
		o.Keep = 2
	}
	if o.FS == nil {
		o.FS = OS
	}
}

// Durable is a crash-safe online closed item set miner: a
// core.Incremental whose transaction stream is made durable through a
// write-ahead log bounded by periodic snapshots. Every acknowledged Add
// (with SyncEvery ≤ 1) is recoverable; Open replays the last good
// snapshot plus the WAL tail.
//
// Durable is crash-only software: after any I/O error the store latches
// the error, every subsequent operation fails with it, and the only way
// forward is to reopen — recovery then restores exactly the durable
// prefix. The in-memory miner stays consistent, so queries (Closed,
// ClosedSet) keep working on the state mined so far even after a write
// fault.
type Durable struct {
	fs     FS
	dir    string
	opt    Options
	m      *core.Incremental
	wal    *walWriter
	dirty  int    // appends since the last WAL sync
	since  int    // transactions since the last snapshot
	snap   uint64 // step of the newest durable snapshot
	snaps  int    // snapshots written by this handle
	err    error  // latched fatal error
	report RepairReport
}

// Open opens (creating if necessary) a durable store in dir, recovering
// any prior state: the newest readable snapshot is loaded and the WAL
// tail replayed, discarding at most a torn final record. Damage that
// would lose durable transactions fails with an error wrapping
// ErrCorrupt.
func Open(dir string, opt Options) (*Durable, error) {
	opt.fill()
	fs := opt.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var report RepairReport
	var snaps, wals []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// Stale atomic-write leftovers: a crash trace, never durable
			// state. Record the sweep so the caller can see the store
			// healed itself.
			if fs.Remove(join(dir, name)) == nil {
				report.SweptTemp = append(report.SweptTemp, name)
				obs.EmitNote(opt.Obs, obs.NoteRepair, fmt.Sprintf("swept orphan %s", name), obs.Counts{})
			}
			continue
		}
		if step, ok := parseSnapName(name); ok {
			snaps = append(snaps, step)
		} else if base, ok := parseWALName(name); ok {
			wals = append(wals, base)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })

	recoverStart := time.Now()
	m, snapStep, skipped, err := recoverState(fs, dir, opt, snaps, wals)
	report.Skipped = skipped
	if err != nil {
		// Recovery failed outright: no quarantine — the damaged files are
		// the only evidence left, and renaming them would not make the
		// next open succeed either.
		return nil, err
	}
	if opt.Repair {
		// Recovery succeeded from an older generation; move unreadable
		// newer snapshots aside so the next open starts at the good one.
		for _, s := range skipped {
			if !s.badSnap {
				continue
			}
			if fs.Rename(join(dir, s.Name), join(dir, s.Name+QuarantineSuffix)) == nil {
				report.Quarantined = append(report.Quarantined, s.Name+QuarantineSuffix)
				obs.EmitNote(opt.Obs, obs.NoteRepair, fmt.Sprintf("quarantined %s", s.Name), obs.Counts{})
			}
		}
	}
	obs.EmitSpan(opt.Obs, obs.PhaseRecover, recoverStart, obs.Counts{NodesPeak: int64(m.NodeCount())})
	d := &Durable{fs: fs, dir: dir, opt: opt, m: m, snap: snapStep, report: report}
	// Start a fresh active segment at the recovered step. If a segment
	// with this base already exists it holds no durable records beyond
	// the recovered state (or recovery would have advanced past it), so
	// truncating it is safe.
	err = d.retryIO("open rotate", func() error {
		var werr error
		d.wal, werr = createWAL(fs, dir, m.Items(), uint64(m.Transactions()))
		return werr
	})
	if err != nil {
		return nil, err
	}
	d.cleanup()
	return d, nil
}

// retryIO runs one snapshot/rotation I/O operation under the store's
// retry policy, counting re-attempts and emitting retry notes. With the
// zero policy it is exactly op().
func (d *Durable) retryIO(what string, op func() error) error {
	return d.opt.Retry.Do(nil, func(attempt int, err error) {
		d.report.Retried++
		obs.EmitNote(d.opt.Obs, obs.NoteRetry,
			fmt.Sprintf("%s attempt %d after: %v", what, attempt, err),
			obs.Counts{NodesPeak: int64(d.m.NodeCount())})
	}, op)
}

// recoverState rebuilds the miner from the newest usable snapshot plus
// the WAL tail, falling back to older snapshots if the newest cannot be
// read, and finally to an empty state replayed from the full log. Every
// generation passed over lands in skipped (newest first) with the
// failure that disqualified it, whether or not recovery eventually
// succeeds.
func recoverState(fs FS, dir string, opt Options, snaps, wals []uint64) (m *core.Incremental, step uint64, skipped []GenerationSkip, err error) {
	if len(snaps) == 0 && len(wals) == 0 {
		// A brand new store.
		if opt.Items < 0 || opt.Items > MaxItems {
			return nil, 0, nil, fmt.Errorf("persist: item universe %d outside [0,%d]", opt.Items, MaxItems)
		}
		return core.NewIncremental(opt.Items), 0, nil, nil
	}
	for _, step := range snaps {
		m, err := readSnapshotFile(fs, dir, snapName(step))
		if err != nil {
			skipped = append(skipped, GenerationSkip{Name: snapName(step), Err: err, badSnap: true})
			continue
		}
		if err := replayWAL(fs, dir, m, wals); err != nil {
			skipped = append(skipped, GenerationSkip{Name: snapName(step), Err: fmt.Errorf("replay: %w", err)})
			continue
		}
		if err := checkUniverse(opt.Items, m.Items()); err != nil {
			return nil, 0, skipped, err
		}
		return m, step, skipped, nil
	}
	// No readable snapshot: only recoverable if the log reaches back to
	// the beginning of the stream.
	if len(wals) > 0 && wals[0] == 0 {
		hdr, _, _, err := readWALFile(fs, dir, walName(wals[0]))
		switch {
		case err == nil && hdr.ok:
			m := core.NewIncremental(int(hdr.items))
			if err := replayWAL(fs, dir, m, wals); err == nil {
				if err := checkUniverse(opt.Items, m.Items()); err != nil {
					return nil, 0, skipped, err
				}
				return m, 0, skipped, nil
			} else {
				skipped = append(skipped, GenerationSkip{Name: walName(wals[0]), Err: fmt.Errorf("replay: %w", err)})
			}
		case err == nil && len(snaps) == 0 && len(wals) == 1:
			// The store crashed while writing its very first segment
			// header: nothing was ever durable, so this is a brand-new
			// store, not data loss.
			if opt.Items < 0 || opt.Items > MaxItems {
				return nil, 0, skipped, fmt.Errorf("persist: item universe %d outside [0,%d]", opt.Items, MaxItems)
			}
			return core.NewIncremental(opt.Items), 0, skipped, nil
		case err != nil:
			skipped = append(skipped, GenerationSkip{Name: walName(wals[0]), Err: err})
		}
	}
	firstErr := corruptf("persist: no usable snapshot or log in %s", dir)
	if len(skipped) > 0 {
		firstErr = skipped[0].Err
	}
	if !errors.Is(firstErr, ErrCorrupt) {
		firstErr = fmt.Errorf("%v: %w", firstErr, ErrCorrupt)
	}
	return nil, 0, skipped, firstErr
}

func checkUniverse(want, have int) error {
	if want > have {
		return fmt.Errorf("persist: store universe has %d items, %d requested", have, want)
	}
	return nil
}

// replayWAL applies to m every logged transaction newer than m's step,
// checking contiguity: the log segments (ascending base order) must
// seamlessly continue the snapshot. A torn tail is allowed only where a
// crash could have left one — at the very end of a segment that no
// later durable data contradicts.
func replayWAL(fs FS, dir string, m *core.Incremental, wals []uint64) error {
	cur := uint64(m.Transactions())
	// Segments entirely covered by the snapshot need not be read (and
	// may be damaged without affecting recovery): segment i spans
	// (wals[i], wals[i+1]], so it is dead once the next base ≤ cur.
	start := 0
	for start+1 < len(wals) && wals[start+1] <= cur {
		start++
	}
	for i := start; i < len(wals); i++ {
		hdr, recs, torn, err := readWALFile(fs, dir, walName(wals[i]))
		if err != nil {
			return err
		}
		if !hdr.ok {
			// Header torn: the segment crashed during creation and holds
			// nothing. Acceptable only for the final segment.
			if i != len(wals)-1 {
				return corruptf("persist: %s torn before durable segment", walName(wals[i]))
			}
			return nil
		}
		if hdr.base != wals[i] {
			return corruptf("persist: %s header base %d does not match name", walName(wals[i]), hdr.base)
		}
		if int(hdr.items) != m.Items() {
			return corruptf("persist: %s universe %d does not match state %d", walName(wals[i]), hdr.items, m.Items())
		}
		if hdr.base > cur {
			// A segment with base B attests that B transactions were once
			// durable; if replay cannot reach B, that data is lost.
			return corruptf("persist: log gap: segment base %d beyond recovered transaction %d", hdr.base, cur)
		}
		for j, rec := range recs {
			step := hdr.base + uint64(j) + 1
			if step <= cur {
				continue // already covered by the snapshot
			}
			if step != cur+1 {
				return corruptf("persist: log gap: transaction %d follows %d", step, cur)
			}
			if err := m.AddSet(rec); err != nil {
				return corruptf("persist: %v", err)
			}
			cur++
		}
		if torn && i != len(wals)-1 && wals[i+1] != cur {
			// The torn record was superseded by a later segment that does
			// not resume where this one durably ended — durable data lies
			// beyond a hole. (A torn tail at the very end, or one exactly
			// patched by the next segment after an earlier crash-reopen
			// cycle, is the expected crash trace and is discarded.)
			return corruptf("persist: %s torn at transaction %d but next segment starts at %d", walName(wals[i]), cur, wals[i+1])
		}
	}
	return nil
}

// Add logs and applies one transaction. The items may be in any order;
// they are canonicalized. With SyncEvery ≤ 1 the transaction is durable
// when Add returns nil.
func (d *Durable) Add(items ...itemset.Item) error {
	return d.AddSet(itemset.New(items...))
}

// AddSet logs and applies one canonical transaction (write-ahead: the
// record is durable before the in-memory state changes).
func (d *Durable) AddSet(t itemset.Set) error {
	if d.err != nil {
		return d.err
	}
	if !t.IsCanonical() {
		return fmt.Errorf("persist: transaction not canonical: %v", t)
	}
	if len(t) > 0 && (t[0] < 0 || int(t[len(t)-1]) >= d.m.Items()) {
		return fmt.Errorf("persist: transaction item outside universe [0,%d): %v", d.m.Items(), t)
	}
	if err := d.wal.Append(t); err != nil {
		return d.fail(err)
	}
	d.dirty++
	if d.dirty >= d.opt.SyncEvery {
		if err := d.wal.Sync(); err != nil {
			return d.fail(err)
		}
		d.dirty = 0
	}
	if err := d.m.AddSet(t); err != nil {
		return d.fail(err) // unreachable after the checks above
	}
	d.since++
	if d.opt.SnapshotEvery > 0 && d.since >= d.opt.SnapshotEvery {
		return d.Snapshot()
	}
	return nil
}

// Snapshot writes a snapshot of the current state, rotates the WAL so
// the replay tail restarts empty, and prunes generations beyond
// Options.Keep. It is called automatically every SnapshotEvery
// transactions.
func (d *Durable) Snapshot() error {
	if d.err != nil {
		return d.err
	}
	step := uint64(d.m.Transactions())
	if step == d.snap {
		return nil // the durable snapshot already covers this state
	}
	snapStart := time.Now()
	err := d.retryIO("snapshot", func() error {
		_, werr := writeSnapshotFile(d.fs, d.dir, d.m)
		return werr
	})
	if err != nil {
		return d.fail(err)
	}
	obs.EmitSpan(d.opt.Obs, obs.PhaseSnapshot, snapStart, obs.Counts{NodesPeak: int64(d.m.NodeCount())})
	// The snapshot is durable; records up to step no longer need the old
	// segment. Open the new segment before closing the old one so a
	// failure in between cannot leave the store without an active log.
	rotateStart := time.Now()
	var neww *walWriter
	err = d.retryIO("rotate", func() error {
		var werr error
		neww, werr = createWAL(d.fs, d.dir, d.m.Items(), step)
		return werr
	})
	if err != nil {
		return d.fail(err)
	}
	old := d.wal
	d.wal = neww
	d.dirty = 0
	d.since = 0
	d.snap = step
	d.snaps++
	if err := old.Close(); err != nil {
		return d.fail(err)
	}
	d.cleanup()
	obs.EmitSpan(d.opt.Obs, obs.PhaseRotate, rotateStart, obs.Counts{NodesPeak: int64(d.m.NodeCount())})
	return nil
}

// cleanup deletes snapshots beyond the Keep newest and WAL segments no
// kept snapshot needs. Failures are ignored: leftovers cost disk space,
// not correctness — recovery always prefers the newest generation.
func (d *Durable) cleanup() {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	var snaps []uint64
	for _, name := range names {
		if step, ok := parseSnapName(name); ok {
			snaps = append(snaps, step)
		}
	}
	if len(snaps) <= d.opt.Keep {
		return
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	oldest := snaps[d.opt.Keep-1] // oldest kept snapshot
	for _, step := range snaps[d.opt.Keep:] {
		d.fs.Remove(join(d.dir, snapName(step)))
	}
	var wals []uint64
	for _, name := range names {
		if base, ok := parseWALName(name); ok {
			wals = append(wals, base)
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	// Segment i spans (wals[i], wals[i+1]]; it is needed iff some kept
	// snapshot's replay can start inside it, i.e. its end > oldest.
	for i := 0; i+1 < len(wals); i++ {
		if wals[i+1] <= oldest {
			d.fs.Remove(join(d.dir, walName(wals[i])))
		}
	}
}

// Sync forces the WAL to stable storage, making every Add so far
// durable regardless of SyncEvery.
func (d *Durable) Sync() error {
	if d.err != nil {
		return d.err
	}
	if err := d.wal.Sync(); err != nil {
		return d.fail(err)
	}
	d.dirty = 0
	return nil
}

// Close syncs and closes the store. The state on disk recovers to
// exactly the transactions added (modulo SyncEvery tail loss if the
// final Sync failed). Close does not snapshot; call Snapshot first to
// bound the next open's replay.
func (d *Durable) Close() error {
	if d.err != nil {
		// Best effort: the store is already poisoned, but release the
		// file handle.
		if d.wal != nil {
			d.wal.f.Close()
		}
		return d.err
	}
	err := d.wal.Close()
	d.err = fmt.Errorf("persist: store closed")
	if err != nil {
		return err
	}
	return nil
}

// fail latches the store's first fatal error. The latched error is
// marked permanent regardless of any transient classification beneath:
// once the store has fail-stopped, re-attempting the operation cannot
// succeed, so surfacing it as retryable would only mislead supervisors.
func (d *Durable) fail(err error) error {
	if d.err == nil {
		d.err = retry.MarkPermanent(fmt.Errorf("persist: store failed: %w", err))
	}
	return d.err
}

// Err returns the latched fatal error, if any.
func (d *Durable) Err() error { return d.err }

// Transactions returns the number of transactions applied so far.
func (d *Durable) Transactions() int { return d.m.Transactions() }

// Items returns the item universe size.
func (d *Durable) Items() int { return d.m.Items() }

// NodeCount returns the current prefix tree size.
func (d *Durable) NodeCount() int { return d.m.NodeCount() }

// Snapshots returns the number of snapshots (each with its WAL rotation)
// this handle has written; recovery on Open does not count.
func (d *Durable) Snapshots() int { return d.snaps }

// RepairReport returns what the self-healing machinery did for this
// handle: temp files swept and generations skipped or quarantined on
// open, plus transient I/O retries performed since.
func (d *Durable) RepairReport() RepairReport { return d.report }

// Retries returns the number of transient I/O operations this handle
// re-ran under Options.Retry.
func (d *Durable) Retries() int { return d.report.Retried }

// Closed reports the closed item sets of the transactions added so far
// whose support reaches minSupport (queries work even after a write
// fault — the in-memory state is always consistent).
func (d *Durable) Closed(minSupport int, rep result.Reporter) {
	d.m.Closed(minSupport, rep)
}

// ClosedSet collects the current closed frequent item sets in canonical
// order.
func (d *Durable) ClosedSet(minSupport int) *result.Set {
	return d.m.ClosedSet(minSupport)
}

// Miner exposes the underlying in-memory miner (read-only use).
func (d *Durable) Miner() *core.Incremental { return d.m }
