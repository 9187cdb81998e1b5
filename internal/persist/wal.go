package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/itemset"
)

// Write-ahead log format, version 1. A segment starts with a
// checksummed header:
//
//	magic    8 bytes  "ISTAWAL\x01"
//	version  uvarint  1
//	items    uvarint  item universe size
//	base     uvarint  step counter when the segment was opened
//	crc      4 bytes  little-endian CRC-32 (IEEE) over the header
//
// followed by one record per transaction (the i-th record, 1-based, is
// transaction base+i of the stream):
//
//	length   uvarint  payload byte count
//	payload  length bytes: uvarint count, uvarint first item,
//	         count-1 × uvarint delta (strictly positive — the set is
//	         canonical, so deltas encode it compactly and re-validate
//	         ascending order on decode)
//	crc      4 bytes  little-endian CRC-32 (IEEE) over the payload
//
// Each record is appended with a single Write call, so a crash leaves at
// worst one partially written record at the tail. The reader classifies
// damage by how it manifests: running out of bytes mid-record is a torn
// tail (the expected trace of a crash — the record was never durable and
// is discarded), while a record whose bytes are all present but whose
// checksum or structure is wrong is corruption and fails with
// ErrCorrupt. A torn header (file shorter than the header) marks an
// empty segment that crashed during creation.

const (
	walMagic   = "ISTAWAL\x01"
	walVersion = 1
)

// walName is the file name of the segment whose first record is
// transaction base+1; names sort lexicographically by base.
func walName(base uint64) string { return fmt.Sprintf("wal-%016d.log", base) }

// parseWALName inverts walName.
func parseWALName(name string) (base uint64, ok bool) {
	return parseNumbered(name, "wal-", ".log")
}

// walHeader is a decoded segment header. ok is false when the header
// itself was torn (the segment holds nothing durable).
type walHeader struct {
	items uint64
	base  uint64
	ok    bool
}

// walWriter appends records to an open segment.
type walWriter struct {
	f    File
	base uint64
	n    uint64 // records appended
	buf  []byte
}

// createWAL creates (truncating) the segment file for base in dir and
// writes its header. The header is synced so the segment's existence
// and base are durable before any record relies on them.
func createWAL(fs FS, dir string, items int, base uint64) (*walWriter, error) {
	f, err := fs.Create(join(dir, walName(base)))
	if err != nil {
		return nil, err
	}
	w := &walWriter{f: f, base: base}
	buf := make([]byte, 0, 64)
	buf = append(buf, walMagic...)
	buf = binary.AppendUvarint(buf, walVersion)
	buf = binary.AppendUvarint(buf, uint64(items))
	buf = binary.AppendUvarint(buf, base)
	buf = appendTrailer(buf, crc32Of(buf))
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append logs one canonical transaction. The record reaches the
// operating system in a single write; durability additionally requires
// Sync.
func (w *walWriter) Append(t itemset.Set) error {
	payload := w.buf[:0]
	payload = binary.AppendUvarint(payload, uint64(len(t)))
	for i, it := range t {
		if i == 0 {
			payload = binary.AppendUvarint(payload, uint64(it))
		} else {
			payload = binary.AppendUvarint(payload, uint64(it-t[i-1]))
		}
	}
	rec := make([]byte, 0, len(payload)+16)
	rec = binary.AppendUvarint(rec, uint64(len(payload)))
	rec = append(rec, payload...)
	rec = appendTrailer(rec, crc32Of(payload))
	w.buf = payload[:0]
	if _, err := w.f.Write(rec); err != nil {
		return err
	}
	w.n++
	return nil
}

// Sync makes all appended records durable.
func (w *walWriter) Sync() error { return w.f.Sync() }

// Close syncs and closes the segment.
func (w *walWriter) Close() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readWAL decodes a whole segment. recs holds the durable records in
// order; torn reports that the tail (or the header, in which case
// hdr.ok is false) was partially written and discarded. Structural or
// checksum damage in fully present bytes fails with an error wrapping
// ErrCorrupt.
func readWAL(r io.Reader) (hdr walHeader, recs []itemset.Set, torn bool, err error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		if isTruncation(err) {
			return hdr, nil, true, nil
		}
		return hdr, nil, false, err
	}
	if string(magic[:]) != walMagic {
		return hdr, nil, false, corruptf("persist: bad WAL magic %q", magic[:])
	}
	fields := make([]uint64, 3) // version, items, base
	for i := range fields {
		if fields[i], err = readUvarint(cr); err != nil {
			if isTruncation(err) {
				return hdr, nil, true, nil
			}
			return hdr, nil, false, err
		}
	}
	sum := cr.crc
	want, err := readTrailer(br)
	if err != nil {
		if isTruncation(err) {
			return hdr, nil, true, nil
		}
		return hdr, nil, false, err
	}
	if want != sum {
		return hdr, nil, false, corruptf("persist: WAL header checksum mismatch")
	}
	if fields[0] != walVersion {
		return hdr, nil, false, corruptf("persist: unsupported WAL version %d", fields[0])
	}
	if fields[1] > MaxItems {
		return hdr, nil, false, corruptf("persist: WAL item universe %d exceeds limit %d", fields[1], MaxItems)
	}
	hdr = walHeader{items: fields[1], base: fields[2], ok: true}

	// A canonical transaction over `items` codes needs at most items
	// varints of ≤5 bytes plus the count; anything longer cannot have
	// been written by Append and is corruption, not a torn tail.
	maxPayload := 16 + 5*hdr.items
	for {
		// A clean EOF exactly at a record boundary ends the segment; any
		// shortage after the first byte of a record is a torn tail.
		if _, err := br.Peek(1); err != nil {
			if isTruncation(err) {
				return hdr, recs, false, nil
			}
			return hdr, recs, false, err
		}
		length, err := readUvarint(br)
		if err != nil {
			if isTruncation(err) {
				return hdr, recs, true, nil
			}
			return hdr, recs, false, err
		}
		if length > maxPayload {
			return hdr, recs, false, corruptf("persist: WAL record %d length %d exceeds limit %d", len(recs), length, maxPayload)
		}
		payload, err := readChunked(br, length)
		if err != nil {
			if isTruncation(err) {
				return hdr, recs, true, nil
			}
			return hdr, recs, false, err
		}
		want, err := readTrailer(br)
		if err != nil {
			if isTruncation(err) {
				return hdr, recs, true, nil
			}
			return hdr, recs, false, err
		}
		if want != crc32Of(payload) {
			return hdr, recs, false, corruptf("persist: WAL record %d checksum mismatch", len(recs))
		}
		set, err := decodeTransaction(payload, hdr.items)
		if err != nil {
			return hdr, recs, false, fmt.Errorf("persist: WAL record %d: %w", len(recs), err)
		}
		recs = append(recs, set)
	}
}

// decodeTransaction rebuilds a canonical item set from a record payload,
// re-validating strict ascending order and the item universe bound.
func decodeTransaction(payload []byte, items uint64) (itemset.Set, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, corruptf("bad item count")
	}
	payload = payload[n:]
	if count > items || count > uint64(len(payload)) {
		return nil, corruptf("item count %d implausible", count)
	}
	set := make(itemset.Set, 0, count)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, corruptf("truncated item %d", i)
		}
		payload = payload[n:]
		var it uint64
		if i == 0 {
			it = v
		} else {
			if v == 0 {
				return nil, corruptf("non-ascending item %d", i)
			}
			it = prev + v
		}
		if it >= items {
			return nil, corruptf("item %d outside universe [0,%d)", it, items)
		}
		set = append(set, itemset.Item(it))
		prev = it
	}
	if len(payload) != 0 {
		return nil, corruptf("%d trailing payload bytes", len(payload))
	}
	return set, nil
}

// readWALFile decodes the segment file name from dir.
func readWALFile(fs FS, dir, name string) (walHeader, []itemset.Set, bool, error) {
	f, err := fs.Open(join(dir, name))
	if err != nil {
		return walHeader{}, nil, false, err
	}
	hdr, recs, torn, err := readWAL(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return hdr, recs, torn, fmt.Errorf("%s: %w", name, err)
	}
	return hdr, recs, torn, nil
}
