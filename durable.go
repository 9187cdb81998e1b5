package fim

import (
	"io"

	"repro/internal/obs"
	"repro/internal/persist"
)

// ErrCorrupt is wrapped by every error that reports unreadable or
// inconsistent persistent mining state: a damaged snapshot, a checksum
// mismatch, or a gap in the write-ahead log. Match with errors.Is. A
// torn final WAL record — the expected trace of a crash during an
// append — is not corruption; recovery discards it silently. See
// DESIGN.md §5d for the durability model.
var ErrCorrupt = persist.ErrCorrupt

// RepairReport summarizes what OpenDurable's recovery healed, skipped or
// quarantined. Inspect it through DurableMiner.RepairReport after an
// open that had to fall back past damaged generations.
type RepairReport = persist.RepairReport

// QuarantineSuffix is appended to the file name of a snapshot that
// recovery with DurableOptions.Repair set aside as unreadable; the
// quarantined file is never again considered a generation but keeps its
// bytes for forensics.
const QuarantineSuffix = persist.QuarantineSuffix

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Items is the item universe size, required when the directory holds
	// no prior state. When state exists the recovered universe wins; a
	// larger requested universe fails.
	Items int
	// SnapshotEvery writes a snapshot and rotates the write-ahead log
	// every n transactions; 0 uses 1024, negative disables periodic
	// snapshots (Snapshot can still be called explicitly).
	SnapshotEvery int
	// SyncEvery fsyncs the log every n appends; 0 and 1 sync every
	// append, so every acknowledged Add survives a crash. Larger values
	// trade durability of the last n-1 transactions for throughput.
	SyncEvery int
	// TraceWriter, when non-nil, receives one JSON line per maintenance
	// phase of the store: recovery on open, every snapshot write, and
	// every log rotation, each with its duration and the prefix-tree node
	// count (see DESIGN.md §5e for the schema). Nil costs nothing.
	TraceWriter io.Writer
	// Repair, when set, lets a successful recovery quarantine the damaged
	// newer snapshot generations it had to skip: each is renamed aside
	// with QuarantineSuffix and listed in the RepairReport. When recovery
	// fails nothing is renamed — the evidence stays where it was.
	Repair bool
}

// DurableMiner is a crash-safe IncrementalMiner: every Add is logged to
// an append-only write-ahead log before it is applied, periodic
// snapshots bound the recovery replay, and OpenDurable restores the
// state after a crash — a process restart costs the WAL tail replay,
// not the whole stream.
type DurableMiner struct {
	d *persist.Durable
}

// OpenDurable opens (creating if necessary) a durable online miner
// backed by dir. Prior state is recovered: the newest readable snapshot
// is loaded and the log tail replayed, discarding at most a torn final
// record. Damage that would lose durable transactions fails with an
// error wrapping ErrCorrupt.
func OpenDurable(dir string, opts DurableOptions) (*DurableMiner, error) {
	var sink obs.Sink
	if opts.TraceWriter != nil {
		sink = obs.NewJSONSink(opts.TraceWriter)
	}
	d, err := persist.Open(dir, persist.Options{
		Items:         opts.Items,
		SnapshotEvery: opts.SnapshotEvery,
		SyncEvery:     opts.SyncEvery,
		Obs:           sink,
		Repair:        opts.Repair,
	})
	if err != nil {
		return nil, err
	}
	return &DurableMiner{d: d}, nil
}

// Add logs and applies one transaction (write-ahead: it is durable
// before the in-memory state changes). The items may be in any order;
// they are canonicalized.
func (m *DurableMiner) Add(items ...Item) error { return m.d.Add(items...) }

// AddSet logs and applies one canonical transaction.
func (m *DurableMiner) AddSet(t ItemSet) error { return m.d.AddSet(t) }

// Snapshot forces a snapshot now, rotating the write-ahead log so the
// next recovery's replay tail restarts empty.
func (m *DurableMiner) Snapshot() error { return m.d.Snapshot() }

// Sync forces the write-ahead log to stable storage, making every Add
// so far durable regardless of SyncEvery.
func (m *DurableMiner) Sync() error { return m.d.Sync() }

// Close syncs and closes the store. Closing does not snapshot; call
// Snapshot first to bound the next open's replay.
func (m *DurableMiner) Close() error { return m.d.Close() }

// Transactions returns the number of transactions applied so far.
func (m *DurableMiner) Transactions() int { return m.d.Transactions() }

// Items returns the item universe size.
func (m *DurableMiner) Items() int { return m.d.Items() }

// NodeCount returns the current prefix tree size.
func (m *DurableMiner) NodeCount() int { return m.d.NodeCount() }

// Snapshots returns the number of snapshots (each with its log rotation)
// this handle has written; recovery on open does not count.
func (m *DurableMiner) Snapshots() int { return m.d.Snapshots() }

// RepairReport returns what recovery healed, skipped or quarantined on
// open.
func (m *DurableMiner) RepairReport() RepairReport { return m.d.RepairReport() }

// Closed reports the closed item sets of the transactions added so far
// whose support reaches minSupport. Queries stay available even after a
// write fault — the in-memory state is always consistent.
func (m *DurableMiner) Closed(minSupport int, rep Reporter) {
	m.d.Closed(minSupport, rep)
}

// ClosedSet collects the current closed frequent item sets in canonical
// order.
func (m *DurableMiner) ClosedSet(minSupport int) *ResultSet {
	return m.d.ClosedSet(minSupport)
}
