package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Snapshot format, version 1 (all integers unsigned varints unless
// noted; the trailing CRC-32/IEEE covers every preceding byte):
//
//	magic    8 bytes  "ISTASNAP"
//	version  uvarint  1
//	items    uvarint  item universe size
//	step     uvarint  transactions processed
//	nodes    uvarint  node count of the preorder stream
//	nodes ×  uvarint depth, uvarint item, uvarint step, uvarint supp
//	crc      4 bytes  little-endian CRC-32 (IEEE)
//
// The node stream is the preorder walk of core.Tree.Export; rebuilding
// it through core.TreeBuilder re-validates every structural invariant,
// so arbitrary bytes either round-trip into a well-formed tree or fail
// with an error wrapping ErrCorrupt — decode never panics, and
// allocation is driven by the bytes actually present, not by declared
// counts.

const (
	snapMagic   = "ISTASNAP"
	snapVersion = 1

	// MaxItems caps the item universe a decoder accepts. The tree's
	// transaction-membership scratch array is allocated eagerly from
	// this value (its root index only once the checksum matched), so it
	// must be bounded before any input is trusted; the largest data set
	// the paper mines (thrombin) has 139,351 items, leaving three orders
	// of magnitude of headroom.
	MaxItems = 1 << 26
)

// WriteSnapshot encodes the complete state of m into w. The encoding is
// deterministic: equal miner states produce identical bytes.
func WriteSnapshot(w io.Writer, m *core.Incremental) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	buf := make([]byte, 0, 64)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, snapVersion)
	buf = binary.AppendUvarint(buf, uint64(m.Items()))
	buf = binary.AppendUvarint(buf, uint64(m.Transactions()))
	buf = binary.AppendUvarint(buf, uint64(m.NodeCount()))
	if _, err := cw.Write(buf); err != nil {
		return err
	}
	err := m.Tree().Export(func(r core.NodeRecord) error {
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, uint64(r.Depth))
		buf = binary.AppendUvarint(buf, uint64(r.Item))
		buf = binary.AppendUvarint(buf, uint64(r.Step))
		buf = binary.AppendUvarint(buf, uint64(r.Supp))
		_, werr := cw.Write(buf)
		return werr
	})
	if err != nil {
		return err
	}
	if _, err := bw.Write(appendTrailer(nil, cw.crc)); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot decodes a snapshot back into an online miner. Corrupt,
// truncated or structurally invalid input fails with an error wrapping
// ErrCorrupt; ReadSnapshot never panics and never allocates beyond the
// input's actual size.
func ReadSnapshot(r io.Reader) (*core.Incremental, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, corruptf("persist: snapshot truncated in header")
	}
	if string(magic[:]) != snapMagic {
		return nil, corruptf("persist: bad snapshot magic %q", magic[:])
	}
	version, err := readUvarint(cr)
	if err != nil {
		return nil, corruptf("persist: snapshot truncated in header")
	}
	if version != snapVersion {
		return nil, corruptf("persist: unsupported snapshot version %d", version)
	}
	hdr := make([]uint64, 3) // items, step, nodes
	for i := range hdr {
		if hdr[i], err = readUvarint(cr); err != nil {
			return nil, corruptf("persist: snapshot truncated in header")
		}
	}
	items, step, nodes := hdr[0], hdr[1], hdr[2]
	if items > MaxItems {
		return nil, corruptf("persist: snapshot item universe %d exceeds limit %d", items, MaxItems)
	}
	b, err := core.NewTreeBuilder(int(items), int(step))
	if err != nil {
		return nil, corruptf("persist: %v", err)
	}
	// Each node costs at least 4 bytes of input, so the loop — and with
	// it all tree allocation — is bounded by the real input size even if
	// the declared count is garbage.
	var rec [4]uint64
	for n := uint64(0); n < nodes; n++ {
		for i := range rec {
			if rec[i], err = readUvarint(cr); err != nil {
				return nil, corruptf("persist: snapshot truncated at node %d of %d", n, nodes)
			}
		}
		if rec[0] > maxInt32 || rec[1] > maxInt32 || rec[2] > maxInt32 || rec[3] > maxInt32 {
			return nil, corruptf("persist: snapshot node %d field overflow", n)
		}
		err = b.Add(core.NodeRecord{
			Depth: int32(rec[0]), Item: int32(rec[1]),
			Step: int32(rec[2]), Supp: int32(rec[3]),
		})
		if err != nil {
			return nil, corruptf("persist: %v", err)
		}
	}
	sum := cr.crc
	want, err := readTrailer(cr.r)
	if err != nil {
		return nil, corruptf("persist: snapshot truncated in checksum")
	}
	if want != sum {
		return nil, corruptf("persist: snapshot checksum mismatch (stored %08x, computed %08x)", want, sum)
	}
	if _, err := cr.r.Peek(1); err == nil {
		return nil, corruptf("persist: trailing bytes after snapshot")
	} else if !isTruncation(err) {
		return nil, err
	}
	tree, err := b.Finish()
	if err != nil {
		return nil, corruptf("persist: %v", err)
	}
	return core.RestoreIncremental(tree), nil
}

const maxInt32 = 1<<31 - 1

// snapName is the durable file name of the snapshot at the given step;
// names sort lexicographically by step.
func snapName(step uint64) string { return fmt.Sprintf("snap-%016d.ista", step) }

// parseSnapName inverts snapName.
func parseSnapName(name string) (step uint64, ok bool) {
	return parseNumbered(name, "snap-", ".ista")
}

// parseNumbered extracts the zero-padded decimal between prefix and
// suffix, rejecting anything else.
func parseNumbered(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// writeSnapshotFile writes m's snapshot into dir atomically: the bytes
// go to a temp file that is synced, closed and only then renamed to its
// durable name, and the directory is synced so the rename itself is
// durable. A crash at any point leaves either the previous state or the
// complete new snapshot, never a half-written durable file.
func writeSnapshotFile(fs FS, dir string, m *core.Incremental) (name string, err error) {
	name = snapName(uint64(m.Transactions()))
	tmp := join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return "", err
	}
	if err := WriteSnapshot(f, m); err != nil {
		f.Close()
		fs.Remove(tmp) // best effort; stale temp files are swept on open
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return "", err
	}
	if err := fs.Rename(tmp, join(dir, name)); err != nil {
		fs.Remove(tmp)
		return "", err
	}
	if err := fs.SyncDir(dir); err != nil {
		return "", err
	}
	return name, nil
}

// readSnapshotFile loads the snapshot file name from dir.
func readSnapshotFile(fs FS, dir, name string) (*core.Incremental, error) {
	f, err := fs.Open(join(dir, name))
	if err != nil {
		return nil, err
	}
	m, err := ReadSnapshot(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return m, nil
}
