package persist

import (
	"fmt"
	"strings"
)

// QuarantineSuffix is appended to the name of a corrupt snapshot file
// that auto-repair moved aside. The suffix makes the name unparseable as
// a generation (parseSnapName rejects it), so a quarantined file can
// never be picked up by a later recovery, while its bytes stay on disk
// for forensics.
const QuarantineSuffix = ".quarantined"

// GenerationSkip records one generation recovery could not use: the
// durable file and why it was passed over (snapshot unreadable, replay
// gap, torn-before-durable segment).
type GenerationSkip struct {
	// Name is the file the failure was detected on.
	Name string
	// Err is the failure, wrapping ErrCorrupt for damage.
	Err error

	// badSnap marks a snapshot whose own bytes were unreadable — the
	// only case auto-repair may quarantine. A generation skipped because
	// its WAL replay failed keeps its snapshot: the snapshot itself may
	// be fine and is evidence either way.
	badSnap bool
}

func (s GenerationSkip) String() string {
	return fmt.Sprintf("%s: %v", s.Name, s.Err)
}

// RepairReport describes everything the durable store's self-healing
// machinery did on behalf of the caller: orphaned temp files swept on
// open, generations recovery skipped (and why), and corrupt snapshots
// quarantined. It is always
// populated — with Repair disabled it still records sweeps and skips,
// only the quarantine action is withheld.
type RepairReport struct {
	// SweptTemp lists the orphaned ".tmp" files (crash traces of atomic
	// writes) removed on open.
	SweptTemp []string
	// Skipped lists the generations recovery passed over before finding
	// a usable one, newest first.
	Skipped []GenerationSkip
	// Quarantined lists the new names of corrupt snapshot files moved
	// aside (original name + QuarantineSuffix). Empty unless
	// Options.Repair was set and recovery succeeded from an older
	// generation.
	Quarantined []string
}

// Empty reports whether no repair action or anomaly was recorded.
func (r *RepairReport) Empty() bool {
	return len(r.SweptTemp) == 0 && len(r.Skipped) == 0 &&
		len(r.Quarantined) == 0
}

func (r *RepairReport) String() string {
	if r.Empty() {
		return "clean"
	}
	var parts []string
	if n := len(r.SweptTemp); n > 0 {
		parts = append(parts, fmt.Sprintf("swept %d temp file(s)", n))
	}
	for _, s := range r.Skipped {
		parts = append(parts, fmt.Sprintf("skipped %s", s))
	}
	for _, q := range r.Quarantined {
		parts = append(parts, fmt.Sprintf("quarantined %s", q))
	}
	return strings.Join(parts, "; ")
}
