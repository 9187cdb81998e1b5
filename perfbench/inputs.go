package main

import (
	"bufio"
	"bytes"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	fim "repro"
	"repro/internal/txdb"
)

// baseSeed seeds every workload's generator. The run's --seed does not
// reach the generators: it draws an item relabelling and a row order of
// the base database instead (see seeded). Generator seeds move the
// closed-set count of these databases by about ±15% (5 seeds each), which
// would swamp the benchmark's bounds; a relabelled, reordered database
// has the same closed sets up to the relabelling, so every seed asks for
// the same work up to the tie-breaks in prep's item and row orders.
const baseSeed = 1

// seeded returns base as FIMI text after renaming its items by a random
// permutation and shuffling its rows, both drawn from seed. The same seed
// gives the same bytes.
func seeded(base txdb.Source, seed int64) []byte {
	return fimiBytes(relabel(base, seed))
}

// relabel returns the rows of base with items renamed and rows shuffled
// by seed, each row sorted.
func relabel(base txdb.Source, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(base.NumItems())
	order := rng.Perm(base.NumTx())
	rows := make([][]int, len(order))
	for i, k := range order {
		tx := base.Tx(k)
		row := make([]int, len(tx))
		for j, it := range tx {
			row[j] = perm[it]
		}
		sort.Ints(row)
		rows[i] = row
	}
	return rows
}

// fimiBytes encodes rows in the FIMI format: one transaction per line,
// items separated by spaces.
func fimiBytes(rows [][]int) []byte {
	var b bytes.Buffer
	for _, row := range rows {
		for j, it := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(it))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// digest is an order-independent fingerprint of a pattern collection:
// the pattern count and the wrapping sum of a 64-bit hash of each
// pattern's output line "i1 i2 ... (support)".
type digest struct {
	N   int
	Sum uint64
}

// add folds one pattern into d. buf is a reusable buffer; the grown one
// is returned for reuse.
func (d *digest) add(items []int, support int, buf []byte) []byte {
	buf = buf[:0]
	for j, it := range items {
		if j > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(it), 10)
	}
	buf = append(buf, " ("...)
	buf = strconv.AppendInt(buf, int64(support), 10)
	buf = append(buf, ')')
	d.addLine(buf)
	return buf
}

// addLine folds one output line (without its newline) into d.
func (d *digest) addLine(line []byte) {
	h := fnv.New64a()
	h.Write(line)
	d.N++
	d.Sum += mix(h.Sum64())
}

// mix is the splitmix64 finalizer; it spreads FNV's low-entropy high bits
// so that the sum does not cancel structured differences.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// digestOfSet fingerprints a result set, scaling every support by mult
// (the multiplicity of a repeated transaction stream).
func digestOfSet(set *fim.ResultSet, mult int) digest {
	var d digest
	var buf []byte
	items := make([]int, 0, 64)
	for _, p := range set.Patterns {
		items = items[:0]
		for _, it := range p.Items {
			items = append(items, int(it))
		}
		buf = d.add(items, p.Support*mult, buf)
	}
	return d
}

// digestOfOutput fingerprints the text ResultSet.Write produced, one
// pattern per line.
func digestOfOutput(out []byte) digest {
	var d digest
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		d.addLine(sc.Bytes())
	}
	return d
}
