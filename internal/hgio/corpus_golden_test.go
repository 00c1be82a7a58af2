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

// goldenCorpusPath is a small format-version-1 corpus snapshot (flags 0)
// built from goldenCorpus. It is checked in so that any change to the
// writer's bytes, or to the reader's acceptance of existing files, fails
// here instead of silently orphaning snapshots already on disk.
const (
	goldenCorpusPath = "testdata/corpus_v1.hgx"
	goldenCorpusLen  = 524
	goldenCorpusCRC  = uint32(0x2144df1c)
)

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

// TestCorpusSnapshotGolden checks that the writer still produces the
// checked-in snapshot byte for byte, and that the file still loads into an
// index that answers queries like a fresh build.
func TestCorpusSnapshotGolden(t *testing.T) {
	want, err := os.ReadFile(goldenCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != goldenCorpusLen || crc32.ChecksumIEEE(want) != goldenCorpusCRC {
		t.Fatalf("%s is %d bytes with CRC %08x, want %d bytes with CRC %08x",
			goldenCorpusPath, len(want), crc32.ChecksumIEEE(want), goldenCorpusLen, goldenCorpusCRC)
	}
	names, ix := goldenCorpus()
	var buf bytes.Buffer
	if err := WriteCorpusSnapshot(&buf, names, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("writer output diverged from %s:\n got %x\nwant %x", goldenCorpusPath, buf.Bytes(), want)
	}

	gotNames, re, size, err := ReadCorpusSnapshotFile(goldenCorpusPath)
	if err != nil {
		t.Fatalf("golden snapshot no longer loads: %v", err)
	}
	if size != goldenCorpusLen || fmt.Sprint(gotNames) != fmt.Sprint(names) {
		t.Fatalf("loaded %d bytes, names %v; want %d bytes, names %v", size, gotNames, goldenCorpusLen, names)
	}
	if fmt.Sprint(re.SignatureDigests()) != fmt.Sprint(ix.SignatureDigests()) {
		t.Fatal("loaded digests differ from a fresh build")
	}
	for k := 1; k <= ix.Len(); k++ {
		q := ix.Graph(k - 1)
		m1, s1, err1 := ix.Nearest(q, k)
		m2, s2, err2 := re.Nearest(q, k)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(m1) != fmt.Sprint(m2) || s1 != s2 {
			t.Fatalf("k=%d: loaded index diverged\n%v %+v\n%v %+v", k, m1, s1, m2, s2)
		}
	}
}
