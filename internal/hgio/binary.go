package hgio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"hged/internal/hypergraph"
)

// Binary hypergraph layout (.hgb, all integers little-endian). The payload
// is the graph's frozen CSR view: the interned label dictionary is written
// once and every entity carries a dense dictionary id, so label-heavy
// graphs cost 4 bytes per entity regardless of label values, and a reader
// rebuilds without re-deriving the dictionary.
//
//	offset  size    field
//	0       8       magic "HGEDGRF1"
//	8       4       format version (uint32, currently 1)
//	12      4       n — node count (uint32)
//	16      4       m — hyperedge count (uint32)
//	20      4       L — label dictionary size (uint32)
//	24      4       incid — Σ|E|, total membership count (uint32)
//	28      4L      label dictionary (L × int32, dense id order)
//	...     4n      node label ids (n × uint32, each < L)
//	...     4m      hyperedge label ids (m × uint32, each < L)
//	...     4(m+1)  hyperedge member offsets (uint32, non-decreasing,
//	                first 0, last incid)
//	...     4·incid concatenated member node ids (uint32, each < n,
//	                strictly ascending within an edge)
//	...     4       CRC-32 (IEEE) of everything above (uint32)
//
// The trailing checksum makes torn writes and bit rot loud: ReadBinary
// either returns a fully validated hypergraph or an error, never a
// partial graph.
const (
	binaryGraphMagic   = "HGEDGRF1"
	binaryGraphVersion = uint32(1)
)

// WriteBinary serializes g in the .hgb binary format from its frozen CSR
// view.
func WriteBinary(w io.Writer, g *hypergraph.Hypergraph) error {
	c := g.Freeze()
	n, m, incid := c.NumNodes(), c.NumEdges(), c.Incidences()
	if n > MaxNodes || m > MaxNodes {
		return fmt.Errorf("hgio: graph too large to serialize (n=%d m=%d, max %d)", n, m, MaxNodes)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(w)
	out := io.MultiWriter(bw, crc)
	if _, err := io.WriteString(out, binaryGraphMagic); err != nil {
		return fmt.Errorf("hgio: %w", err)
	}
	if err := writeU32s(out, binaryGraphVersion, uint32(n), uint32(m), uint32(c.NumLabels()), uint32(incid)); err != nil {
		return err
	}
	for _, l := range c.Labels() {
		if err := writeU32s(out, uint32(int32(l))); err != nil {
			return err
		}
	}
	for _, id := range c.NodeLabelIDs() {
		if err := writeU32s(out, uint32(id)); err != nil {
			return err
		}
	}
	for _, id := range c.EdgeLabelIDs() {
		if err := writeU32s(out, uint32(id)); err != nil {
			return err
		}
	}
	off := uint32(0)
	if err := writeU32s(out, off); err != nil {
		return err
	}
	for e := 0; e < m; e++ {
		off += uint32(c.Arity(hypergraph.EdgeID(e)))
		if err := writeU32s(out, off); err != nil {
			return err
		}
	}
	for e := 0; e < m; e++ {
		for _, v := range c.Members(hypergraph.EdgeID(e)) {
			if err := writeU32s(out, uint32(v)); err != nil {
				return err
			}
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

// binaryGraphHeaderLen is the fixed prefix of a .hgb record: the magic plus
// five uint32 fields (version, n, m, L, incid).
const binaryGraphHeaderLen = len(binaryGraphMagic) + 5*4

// binaryGraphBodyLen returns the byte count following the header for the
// given section sizes, including the CRC trailer.
func binaryGraphBodyLen(n, m, nlab, incid int) int {
	return 4 * (nlab + n + m + (m + 1) + incid + 1)
}

// validateBinaryHeader checks the magic, version, and plausibility bounds of
// a .hgb header and returns the decoded counts.
func validateBinaryHeader(header []byte) (n, m, nlab, incid int, err error) {
	if string(header[:len(binaryGraphMagic)]) != binaryGraphMagic {
		return 0, 0, 0, 0, fmt.Errorf("hgio: not a binary hypergraph (bad magic %q)", header[:len(binaryGraphMagic)])
	}
	p := len(binaryGraphMagic)
	version := binary.LittleEndian.Uint32(header[p:])
	un := binary.LittleEndian.Uint32(header[p+4:])
	um := binary.LittleEndian.Uint32(header[p+8:])
	ul := binary.LittleEndian.Uint32(header[p+12:])
	uincid := binary.LittleEndian.Uint32(header[p+16:])
	if version != binaryGraphVersion {
		return 0, 0, 0, 0, fmt.Errorf("hgio: unsupported binary graph version %d (want %d)", version, binaryGraphVersion)
	}
	if un > MaxNodes || um > MaxNodes || uincid > MaxNodes*8 {
		return 0, 0, 0, 0, fmt.Errorf("hgio: implausible binary graph counts n=%d m=%d incid=%d (max %d nodes)", un, um, uincid, MaxNodes)
	}
	if ul > un+um {
		return 0, 0, 0, 0, fmt.Errorf("hgio: label dictionary size %d exceeds entity count %d", ul, un+um)
	}
	return int(un), int(um), int(ul), int(uincid), nil
}

// decodeBinary decodes one complete .hgb record (magic through CRC trailer,
// no surrounding bytes) and constructs the hypergraph via
// hypergraph.FromFrozen: the flat arrays become its CSR view directly,
// never replayed through AddEdge, and its lists are slices of them. The corpus
// snapshot reader calls it on length-delimited windows of a larger file, so
// it must never read past len(data).
func decodeBinary(data []byte) (*hypergraph.Hypergraph, error) {
	if len(data) < binaryGraphHeaderLen {
		return nil, fmt.Errorf("hgio: binary graph header: truncated input (%d bytes)", len(data))
	}
	n, m, nlab, incid, err := validateBinaryHeader(data)
	if err != nil {
		return nil, err
	}
	want := binaryGraphHeaderLen + binaryGraphBodyLen(n, m, nlab, incid)
	if len(data) < want {
		return nil, fmt.Errorf("hgio: binary graph truncated (%d bytes, want %d)", len(data), want)
	}
	if len(data) > want {
		return nil, fmt.Errorf("hgio: trailing data after binary graph")
	}
	stored := binary.LittleEndian.Uint32(data[want-4:])
	if sum := crc32.ChecksumIEEE(data[:want-4]); stored != sum {
		return nil, fmt.Errorf("hgio: binary graph checksum mismatch (stored %08x, computed %08x): corrupt or torn write", stored, sum)
	}
	p := binaryGraphHeaderLen
	dict := make([]hypergraph.Label, nlab)
	for i := range dict {
		dict[i] = hypergraph.Label(int32(binary.LittleEndian.Uint32(data[p:])))
		p += 4
	}
	nodeLab := make([]int32, n)
	for i := range nodeLab {
		nodeLab[i] = int32(binary.LittleEndian.Uint32(data[p:]))
		p += 4
	}
	edgeLab := make([]int32, m)
	for i := range edgeLab {
		edgeLab[i] = int32(binary.LittleEndian.Uint32(data[p:]))
		p += 4
	}
	edgeOff := make([]int32, m+1)
	for i := range edgeOff {
		edgeOff[i] = int32(binary.LittleEndian.Uint32(data[p:]))
		p += 4
	}
	members := make([]hypergraph.NodeID, incid)
	for i := range members {
		members[i] = hypergraph.NodeID(binary.LittleEndian.Uint32(data[p:]))
		p += 4
	}
	g, err := hypergraph.FromFrozen(dict, nodeLab, edgeLab, edgeOff, members)
	if err != nil {
		return nil, fmt.Errorf("hgio: invalid binary graph: %w", err)
	}
	return g, nil
}

// ReadBinary parses the .hgb format written by WriteBinary: one header read,
// one body read, then decodeBinary validates everything (checksum included)
// before any hypergraph is constructed. The result's CSR view is
// assembled straight from the decoded arrays, so loading performs no
// Freeze rebuild.
func ReadBinary(r io.Reader) (*hypergraph.Hypergraph, error) {
	header := make([]byte, binaryGraphHeaderLen)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("hgio: binary graph header: %w", err)
	}
	n, m, nlab, incid, err := validateBinaryHeader(header)
	if err != nil {
		return nil, err
	}
	data := make([]byte, binaryGraphHeaderLen+binaryGraphBodyLen(n, m, nlab, incid))
	copy(data, header)
	if _, err := io.ReadFull(r, data[binaryGraphHeaderLen:]); err != nil {
		return nil, fmt.Errorf("hgio: binary graph truncated: %w", err)
	}
	if extra, _ := io.CopyN(io.Discard, r, 1); extra != 0 {
		return nil, fmt.Errorf("hgio: trailing data after binary graph")
	}
	return decodeBinary(data)
}

// WriteBinaryFile atomically writes g to path in the .hgb format (temp
// file, fsync, rename — a crash mid-write never leaves a torn file).
func WriteBinaryFile(path string, g *hypergraph.Hypergraph) error {
	return writeAtomic(path, func(w io.Writer) error { return WriteBinary(w, g) })
}
