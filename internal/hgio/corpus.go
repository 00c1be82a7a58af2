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

// Corpus snapshot layout (.hgx, all integers little-endian). One file
// holds the corpus a server searches: the entry names and the graphs as
// nested .hgb records. Everything derived from the graphs — the search
// index's signature table — is rebuilt on load, so a snapshot can never
// disagree with the graphs it carries.
//
//	offset  size      field
//	0       8         magic "HGEDIDX1"
//	8       4         format version (uint32, currently 2)
//	12      4         G — corpus size (uint32)
//	16      4         flags (uint32; must be 0)
//	...               G × (uint32 length + name bytes) — corpus entry names
//	...               G × (uint32 length + nested .hgb record)
//	...     4         CRC-32 (IEEE) of everything above (uint32)
//
// Version 1 files carry the signature table and per-graph digests between
// the last graph record and the CRC. The reader still accepts them, checks
// the CRC over the whole file and skips that section unread: the table is
// rebuilt from the graphs like any other.
const (
	corpusSnapshotMagic   = "HGEDIDX1"
	corpusSnapshotVersion = uint32(2)
	// corpusSnapshotV1 is the previous version, whose trailing signature
	// section the reader skips.
	corpusSnapshotV1 = uint32(1)

	// maxSnapshotGraphs bounds the corpus size and maxSnapshotNameLen a
	// single corpus entry name, protecting the reader from hostile length
	// prefixes.
	maxSnapshotGraphs  = 1 << 24
	maxSnapshotNameLen = 1 << 16
)

// WriteCorpusSnapshot serializes the corpus behind ix (names[i] labels graph
// i; typically registry names or source file paths). The flags word is
// always 0.
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
// trailer, which the caller has already verified), serving each record as
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

// decodeCorpus parses the snapshot payload (CRC already verified and
// stripped) and indexes the decoded graphs.
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
	if version != corpusSnapshotVersion && version != corpusSnapshotV1 {
		return nil, nil, fmt.Errorf("hgio: unsupported corpus snapshot version %d (want %d or %d)", version, corpusSnapshotV1, corpusSnapshotVersion)
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
	// What follows the graphs of a version-1 file is its signature section,
	// left unread.
	if left := src.remaining(); left != 0 && version == corpusSnapshotVersion {
		return nil, nil, fmt.Errorf("hgio: %d trailing bytes after corpus snapshot", left)
	}
	return names, search.Build(graphs), nil
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
// returns the corpus entry names and an index built over the decoded
// graphs, or an error — never a partial corpus. Each graph keeps the CSR
// view it was decoded into, so indexing it performs no Freeze rebuild.
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
