package hgio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"hged/internal/hypergraph"
	"hged/internal/search"
)

// Combined corpus+index snapshot layout (.hgx, all integers little-endian).
// One file holds everything a server needs to answer its first query: the
// corpus graphs as nested .hgb records, the search index's signature-table
// columns exactly as they sit in memory, and the per-graph signature
// digests. Loading it constructs every graph frozen-first and restores the
// index without recomputing a single signature — zero Freeze rebuilds on
// the cold path.
//
//	offset  size      field
//	0       8         magic "HGEDIDX1"
//	8       4         format version (uint32, currently 1)
//	12      4         G — corpus size (uint32)
//	16      4         flags (uint32; must be 0)
//	...               G × (uint32 length + name bytes) — corpus entry names
//	...               G × (uint32 length + nested .hgb record)
//	...     4G        signature column n (G × int32)
//	...     4G        signature column m (G × int32)
//	...     4G        signature column incid (G × int32)
//	...     4(G+1)    cardinality arena offsets (int32, first 0)
//	...     4·cards   cardinality arena (cardOff[G] × int32)
//	...     4(G+1)    node-label arena offsets
//	...     4·nlab    node-label arena labels (nodeOff[G] × int32)
//	...     4·nlab    node-label arena multiplicities
//	...     4(G+1)    edge-label arena offsets
//	...     4·elab    edge-label arena labels (edgeOff[G] × int32)
//	...     4·elab    edge-label arena multiplicities
//	...     8G        per-graph signature digests (G × uint64)
//	...     4         CRC-32 (IEEE) of everything above (uint32)
//
// Arena lengths are implied by the final offset entry, so the file carries
// no redundant counts to cross-check against each other. The trailing
// checksum is verified before any graph or index is constructed, and
// search.FromSnapshot re-validates the restored table against the decoded
// graphs (including a digest recomputation), so a torn, truncated, or
// tampered snapshot is rejected rather than installed.
const (
	corpusSnapshotMagic   = "HGEDIDX1"
	corpusSnapshotVersion = uint32(1)

	// maxSnapshotGraphs bounds the corpus size and maxSnapshotNameLen a
	// single corpus entry name, protecting the reader from hostile length
	// prefixes.
	maxSnapshotGraphs  = 1 << 24
	maxSnapshotNameLen = 1 << 16
)

// WriteCorpusSnapshot serializes the corpus behind ix (names[i] labels graph
// i; typically registry names or source file paths) together with the
// index's signature table and digests. The flags word is always 0.
func WriteCorpusSnapshot(w io.Writer, names []string, ix *search.Index) error {
	if ix == nil {
		return fmt.Errorf("hgio: nil search index")
	}
	if len(names) != ix.Len() {
		return fmt.Errorf("hgio: %d names for a corpus of %d graphs", len(names), ix.Len())
	}
	for i, name := range names {
		if len(name) > maxSnapshotNameLen {
			return fmt.Errorf("hgio: corpus entry %d name is %d bytes (max %d)", i, len(name), maxSnapshotNameLen)
		}
	}
	snap := ix.Snapshot()

	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(w)
	out := io.MultiWriter(bw, crc)
	if _, err := io.WriteString(out, corpusSnapshotMagic); err != nil {
		return fmt.Errorf("hgio: %w", err)
	}
	if err := writeU32s(out, corpusSnapshotVersion, uint32(ix.Len()), 0); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeU32s(out, uint32(len(name))); err != nil {
			return err
		}
		if _, err := io.WriteString(out, name); err != nil {
			return fmt.Errorf("hgio: %w", err)
		}
	}
	var rec bytes.Buffer
	for i := 0; i < ix.Len(); i++ {
		rec.Reset()
		if err := WriteBinary(&rec, ix.Graph(i)); err != nil {
			return fmt.Errorf("hgio: corpus snapshot graph %d: %w", i, err)
		}
		if err := writeU32s(out, uint32(rec.Len())); err != nil {
			return err
		}
		if _, err := out.Write(rec.Bytes()); err != nil {
			return fmt.Errorf("hgio: %w", err)
		}
	}
	for _, col := range [][]int32{snap.N, snap.M, snap.Incid, snap.CardOff, snap.Cards} {
		if err := writeI32s(out, col); err != nil {
			return err
		}
	}
	if err := writeI32s(out, snap.NodeOff); err != nil {
		return err
	}
	if err := writeLabels(out, snap.NodeLabels); err != nil {
		return err
	}
	if err := writeI32s(out, snap.NodeCounts); err != nil {
		return err
	}
	if err := writeI32s(out, snap.EdgeOff); err != nil {
		return err
	}
	if err := writeLabels(out, snap.EdgeLabels); err != nil {
		return err
	}
	if err := writeI32s(out, snap.EdgeCounts); err != nil {
		return err
	}
	var u64 [8]byte
	for _, d := range snap.Digests {
		binary.LittleEndian.PutUint64(u64[:], d)
		if _, err := out.Write(u64[:]); err != nil {
			return fmt.Errorf("hgio: %w", err)
		}
	}
	if err := writeU32s(bw, crc.Sum32()); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("hgio: %w", err)
	}
	return nil
}

// WriteCorpusSnapshotFile atomically writes a corpus snapshot to path.
func WriteCorpusSnapshotFile(path string, names []string, ix *search.Index) error {
	return writeAtomic(path, func(w io.Writer) error { return WriteCorpusSnapshot(w, names, ix) })
}

// corpusReader walks the snapshot payload (everything before the CRC
// trailer, which the caller has already verified), serving each section as
// a subslice of the one contiguous read.
type corpusReader struct {
	data []byte
	pos  int
}

// next returns the next n payload bytes.
func (r *corpusReader) next(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("hgio: corpus snapshot truncated (need %d bytes, %d left)", n, r.remaining())
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *corpusReader) remaining() int { return len(r.data) - r.pos }

func (r *corpusReader) u32() (uint32, error) {
	b, err := r.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// i32s reads count little-endian int32s. The length check inside next
// bounds the allocation by the actual payload size, so a corrupt count
// cannot trigger a huge allocation.
func (r *corpusReader) i32s(count int) ([]int32, error) {
	b, err := r.next(4 * count)
	if err != nil {
		return nil, err
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func (r *corpusReader) labels(count int) ([]hypergraph.Label, error) {
	b, err := r.next(4 * count)
	if err != nil {
		return nil, err
	}
	out := make([]hypergraph.Label, count)
	for i := range out {
		out[i] = hypergraph.Label(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
	return out, nil
}

// decodeCorpus parses the snapshot payload (CRC already verified and
// stripped) and restores the corpus and its index.
func decodeCorpus(body []byte) ([]string, *search.Index, error) {
	src := &corpusReader{data: body}
	head, err := src.next(len(corpusSnapshotMagic))
	if err != nil {
		return nil, nil, err
	}
	if string(head) != corpusSnapshotMagic {
		return nil, nil, fmt.Errorf("hgio: not a corpus snapshot (bad magic %q)", head)
	}
	version, err := src.u32()
	if err != nil {
		return nil, nil, err
	}
	if version != corpusSnapshotVersion {
		return nil, nil, fmt.Errorf("hgio: unsupported corpus snapshot version %d (want %d)", version, corpusSnapshotVersion)
	}
	ug, err := src.u32()
	if err != nil {
		return nil, nil, err
	}
	if ug > maxSnapshotGraphs {
		return nil, nil, fmt.Errorf("hgio: implausible corpus snapshot size %d (max %d)", ug, maxSnapshotGraphs)
	}
	flags, err := src.u32()
	if err != nil {
		return nil, nil, err
	}
	switch {
	case flags&1 != 0:
		return nil, nil, fmt.Errorf("hgio: corpus snapshot carries a pivot section, no longer supported; rebuild it from the graph files")
	case flags != 0:
		return nil, nil, fmt.Errorf("hgio: unknown corpus snapshot flags %#x", flags)
	}
	g := int(ug)
	names := make([]string, g)
	for i := range names {
		nlen, err := src.u32()
		if err != nil {
			return nil, nil, err
		}
		if nlen > maxSnapshotNameLen {
			return nil, nil, fmt.Errorf("hgio: corpus entry %d name length %d (max %d)", i, nlen, maxSnapshotNameLen)
		}
		b, err := src.next(int(nlen))
		if err != nil {
			return nil, nil, err
		}
		names[i] = string(b)
	}
	graphs := make([]*hypergraph.Hypergraph, g)
	for i := range graphs {
		rlen, err := src.u32()
		if err != nil {
			return nil, nil, err
		}
		b, err := src.next(int(rlen))
		if err != nil {
			return nil, nil, err
		}
		if graphs[i], err = decodeBinary(b); err != nil {
			return nil, nil, fmt.Errorf("corpus snapshot graph %d: %w", i, err)
		}
	}
	snap := &search.Snapshot{}
	if snap.N, err = src.i32s(g); err != nil {
		return nil, nil, err
	}
	if snap.M, err = src.i32s(g); err != nil {
		return nil, nil, err
	}
	if snap.Incid, err = src.i32s(g); err != nil {
		return nil, nil, err
	}
	arena := func(off []int32) (int, error) {
		if last := off[g]; last < 0 {
			return 0, fmt.Errorf("hgio: corpus snapshot arena length %d is negative", last)
		}
		return int(off[g]), nil
	}
	if snap.CardOff, err = src.i32s(g + 1); err != nil {
		return nil, nil, err
	}
	cards, err := arena(snap.CardOff)
	if err != nil {
		return nil, nil, err
	}
	if snap.Cards, err = src.i32s(cards); err != nil {
		return nil, nil, err
	}
	if snap.NodeOff, err = src.i32s(g + 1); err != nil {
		return nil, nil, err
	}
	nlab, err := arena(snap.NodeOff)
	if err != nil {
		return nil, nil, err
	}
	if snap.NodeLabels, err = src.labels(nlab); err != nil {
		return nil, nil, err
	}
	if snap.NodeCounts, err = src.i32s(nlab); err != nil {
		return nil, nil, err
	}
	if snap.EdgeOff, err = src.i32s(g + 1); err != nil {
		return nil, nil, err
	}
	elab, err := arena(snap.EdgeOff)
	if err != nil {
		return nil, nil, err
	}
	if snap.EdgeLabels, err = src.labels(elab); err != nil {
		return nil, nil, err
	}
	if snap.EdgeCounts, err = src.i32s(elab); err != nil {
		return nil, nil, err
	}
	b, err := src.next(8 * g)
	if err != nil {
		return nil, nil, err
	}
	snap.Digests = make([]uint64, g)
	for i := range snap.Digests {
		snap.Digests[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if left := src.remaining(); left != 0 {
		return nil, nil, fmt.Errorf("hgio: %d trailing bytes after corpus snapshot", left)
	}
	ix, err := search.FromSnapshot(graphs, snap)
	if err != nil {
		return nil, nil, fmt.Errorf("hgio: corpus snapshot rejected: %w", err)
	}
	return names, ix, nil
}

// decodeCorpusSnapshot verifies the CRC trailer over a complete in-memory
// snapshot, then decodes the payload.
func decodeCorpusSnapshot(data []byte) ([]string, *search.Index, error) {
	if len(data) < len(corpusSnapshotMagic)+3*4+4 {
		return nil, nil, fmt.Errorf("hgio: corpus snapshot truncated (%d bytes)", len(data))
	}
	body := data[:len(data)-4]
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if sum := crc32.ChecksumIEEE(body); stored != sum {
		return nil, nil, fmt.Errorf("hgio: corpus snapshot checksum mismatch (stored %08x, computed %08x): corrupt or torn write", stored, sum)
	}
	return decodeCorpus(body)
}

// ReadCorpusSnapshot parses a snapshot written by WriteCorpusSnapshot. It
// returns the corpus entry names and a fully validated index over graphs
// constructed frozen-first, or an error — never a partial corpus.
func ReadCorpusSnapshot(r io.Reader) ([]string, *search.Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("hgio: %w", err)
	}
	return decodeCorpusSnapshot(data)
}

// ReadCorpusSnapshotFile reads a snapshot from path with a single
// contiguous read, returning the file size alongside the corpus for the
// server's cold-start metrics.
func ReadCorpusSnapshotFile(path string) ([]string, *search.Index, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("hgio: %w", err)
	}
	names, ix, err := decodeCorpusSnapshot(data)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w (file %s)", err, path)
	}
	return names, ix, int64(len(data)), nil
}

func writeU32s(w io.Writer, vs ...uint32) error {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], v)
		if _, err := w.Write(buf[:]); err != nil {
			return fmt.Errorf("hgio: %w", err)
		}
	}
	return nil
}

func writeI32s(w io.Writer, vs []int32) error {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		if _, err := w.Write(buf[:]); err != nil {
			return fmt.Errorf("hgio: %w", err)
		}
	}
	return nil
}

func writeLabels(w io.Writer, vs []hypergraph.Label) error {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(v)))
		if _, err := w.Write(buf[:]); err != nil {
			return fmt.Errorf("hgio: %w", err)
		}
	}
	return nil
}
