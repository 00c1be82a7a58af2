package hgio

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"hged/internal/hypergraph"
	"hged/internal/search"
)

// Checked-in corpus snapshots, each pinned by its length and by the CRC of
// everything before its trailer (the CRC of a whole sealed file is the
// same constant for every file). goldenCorpusPath pins the writer's bytes
// (format version 2, flags 0) for goldenCorpus, so any change to them
// fails here instead of silently orphaning snapshots already on disk.
// goldenCorpusV1Path is the same corpus as an earlier writer emitted it,
// with its signature section, and keeps the reader compatible with such
// files. mismatchedV1Path is a version-1 file whose signature section
// describes a different graph than the one it carries.
const (
	goldenCorpusPath = "testdata/corpus_v2.hgx"
	goldenCorpusLen  = 316
	goldenCorpusCRC  = uint32(0x7150a946)

	goldenCorpusV1Path = "testdata/corpus_v1.hgx"
	goldenCorpusV1Len  = 524
	goldenCorpusV1CRC  = uint32(0xe9440be0)

	mismatchedV1Path = "testdata/corpus_v1_mismatched.hgx"
	mismatchedV1Len  = 172
	mismatchedV1CRC  = uint32(0xa33a4e68)
)

// readFixture returns a checked-in snapshot after checking its pins.
func readFixture(t testing.TB, path string, size int, crc uint32) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != size || len(data) < 4 || crc32.ChecksumIEEE(data[:len(data)-4]) != crc {
		t.Fatalf("%s is %d bytes, want %d bytes with payload CRC %08x", path, len(data), size, crc)
	}
	return data
}

// goldenCorpus builds the fixed three-graph corpus behind goldenCorpusPath
// by hand, independent of any generator.
func goldenCorpus() ([]string, *search.Index) {
	a := hypergraph.NewLabeled([]hypergraph.Label{1, 2, 2, 3})
	a.AddEdge(1, 0, 1, 2)
	a.AddEdge(2, 2, 3)
	b := hypergraph.NewLabeled([]hypergraph.Label{2, 2, 3})
	b.AddEdge(1, 0, 1)
	b.AddEdge(1, 1, 2)
	b.AddEdge(3, 0, 1, 2)
	c := hypergraph.NewLabeled([]hypergraph.Label{4})
	return []string{"a.hg", "b.hg", "c.hg"}, search.Build([]*hypergraph.Hypergraph{a, b, c})
}

// readGolden loads a checked-in snapshot and fails unless it holds names
// and an index equal to Build over its own graphs, with the same kNN
// answers as want.
func readGolden(t *testing.T, path string, data []byte, names []string, want *search.Index) {
	t.Helper()
	gotNames, re, err := ReadCorpusSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s no longer loads: %v", path, err)
	}
	if fmt.Sprint(gotNames) != fmt.Sprint(names) {
		t.Fatalf("%s: names %v, want %v", path, gotNames, names)
	}
	graphs := make([]*hypergraph.Hypergraph, re.Len())
	for i := range graphs {
		graphs[i] = re.Graph(i)
	}
	if !re.Equal(search.Build(graphs)) || !re.Equal(want) {
		t.Fatalf("%s: loaded index differs from Build over its graphs", path)
	}
	for k := 1; k <= want.Len(); k++ {
		q := want.Graph(k - 1)
		m1, s1, err1 := want.Nearest(q, k)
		m2, s2, err2 := re.Nearest(q, k)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(m1) != fmt.Sprint(m2) || s1 != s2 {
			t.Fatalf("%s k=%d: loaded index diverged\n%v %+v\n%v %+v", path, k, m1, s1, m2, s2)
		}
	}
}

// TestCorpusSnapshotGolden checks that the writer still produces the
// checked-in snapshot byte for byte, and that the file still loads into an
// index that answers queries like a fresh build.
func TestCorpusSnapshotGolden(t *testing.T) {
	want := readFixture(t, goldenCorpusPath, goldenCorpusLen, goldenCorpusCRC)
	names, ix := goldenCorpus()
	var buf bytes.Buffer
	if err := WriteCorpusSnapshot(&buf, names, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("writer output diverged from %s:\n got %x\nwant %x", goldenCorpusPath, buf.Bytes(), want)
	}
	readGolden(t, goldenCorpusPath, want, names, ix)
}

// TestCorpusSnapshotReadsV1 checks that a version-1 snapshot still loads:
// its graphs and names are read and its signature section is skipped.
func TestCorpusSnapshotReadsV1(t *testing.T) {
	names, ix := goldenCorpus()
	data := readFixture(t, goldenCorpusV1Path, goldenCorpusV1Len, goldenCorpusV1CRC)
	readGolden(t, goldenCorpusV1Path, data, names, ix)
}

// TestCorpusSnapshotIgnoresStoredTable loads a CRC-valid version-1 file
// whose signature section belongs to a same-sized graph with other labels.
// Adopting that table would make the label filter prune the file's own
// graph from a τ=0 self-query; the index must instead equal Build over the
// graph the file carries.
func TestCorpusSnapshotIgnoresStoredTable(t *testing.T) {
	data := readFixture(t, mismatchedV1Path, mismatchedV1Len, mismatchedV1CRC)
	names, re, err := ReadCorpusSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || re.Len() != 1 {
		t.Fatalf("loaded %d names and %d graphs, want 1 and 1", len(names), re.Len())
	}
	g := re.Graph(0)
	if !re.Equal(search.Build([]*hypergraph.Hypergraph{g})) {
		t.Fatal("loaded index differs from Build over the file's graph")
	}
	m, st, err := re.Search(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(m) != "[{0 0}]" {
		t.Fatalf("τ=0 self-query returned %v (%+v), want [{0 0}]", m, st)
	}
}
