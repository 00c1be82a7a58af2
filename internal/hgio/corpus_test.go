package hgio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
	"hged/internal/search"
)

// snapshotCorpus builds a small deterministic corpus and its search index.
func snapshotCorpus(size int, seed int64) ([]string, *search.Index) {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*hypergraph.Hypergraph, size)
	names := make([]string, size)
	for i := range graphs {
		graphs[i] = gen.Uniform(3+rng.Intn(5), rng.Intn(5), 3, 3, 2, rng.Int63()+1)
		names[i] = fmt.Sprintf("corpus/g%03d.hg", i)
	}
	return names, search.Build(graphs)
}

// TestCorpusSnapshotRoundTrip writes a corpus snapshot and restores it,
// checking that names, the index and query results come back identical —
// and that the restore performs zero CSR freeze rebuilds.
func TestCorpusSnapshotRoundTrip(t *testing.T) {
	names, ix := snapshotCorpus(24, 41)
	var buf bytes.Buffer
	if err := WriteCorpusSnapshot(&buf, names, ix); err != nil {
		t.Fatalf("write: %v", err)
	}

	before := hypergraph.FreezeBuilds()
	gotNames, re, err := ReadCorpusSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if rebuilds := hypergraph.FreezeBuilds() - before; rebuilds != 0 {
		t.Errorf("restoring the snapshot performed %d freeze rebuilds, want 0", rebuilds)
	}
	if fmt.Sprint(gotNames) != fmt.Sprint(names) {
		t.Fatalf("names diverged:\n in: %v\nout: %v", names, gotNames)
	}
	if !re.Equal(ix) {
		t.Fatal("restored index differs from the written one")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		q := gen.Uniform(3+rng.Intn(4), rng.Intn(4), 3, 3, 2, rng.Int63()+1)
		tau := rng.Intn(6)
		m1, s1, err1 := ix.Search(q, tau)
		m2, s2, err2 := re.Search(q, tau)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(m1) != fmt.Sprint(m2) || s1 != s2 {
			t.Fatalf("trial %d: results diverged\n%v %+v\n%v %+v", trial, m1, s1, m2, s2)
		}
	}
}

// TestCorpusSnapshotFileLoaders checks that the file loader agrees with the
// stream reader and reports the on-disk byte count.
func TestCorpusSnapshotFileLoaders(t *testing.T) {
	names, ix := snapshotCorpus(16, 99)
	path := filepath.Join(t.TempDir(), "corpus.hgx")
	if err := WriteCorpusSnapshotFile(path, names, ix); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	n1, ix1, size, err := ReadCorpusSnapshotFile(path)
	if err != nil {
		t.Fatalf("file loader: %v", err)
	}
	n2, ix2, err := ReadCorpusSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("stream reader: %v", err)
	}
	if size != int64(len(raw)) {
		t.Errorf("file loader reports %d bytes, file is %d", size, len(raw))
	}
	if fmt.Sprint(n1) != fmt.Sprint(names) || fmt.Sprint(n2) != fmt.Sprint(names) {
		t.Errorf("loaders returned wrong names: %v / %v", n1, n2)
	}
	if !ix1.Equal(ix) || !ix2.Equal(ix) {
		t.Error("loaders returned diverging indexes")
	}
	q := gen.Uniform(5, 3, 3, 3, 2, 12345)
	m1, s1, err1 := ix1.Search(q, 4)
	m2, s2, err2 := ix2.Search(q, 4)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if fmt.Sprint(m1) != fmt.Sprint(m2) || s1 != s2 {
		t.Fatalf("file loader and stream reader disagree:\n%v %+v\n%v %+v", m1, s1, m2, s2)
	}
	if _, _, _, err := ReadCorpusSnapshotFile(filepath.Join(t.TempDir(), "missing.hgx")); err == nil {
		t.Error("file loader accepted a missing file")
	}
}

// reseal replaces a snapshot's CRC trailer with the checksum of body, so
// the reader gets past the checksum and judges the payload itself.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// withFlags rewrites a snapshot's flags word and reseals it.
func withFlags(wire []byte, flags uint32) []byte {
	body := append([]byte(nil), wire[:len(wire)-4]...)
	binary.LittleEndian.PutUint32(body[16:], flags)
	return reseal(body)
}

// snapshotWire is one encoded corpus snapshot for the rejection tests.
type snapshotWire struct {
	version string
	names   []string
	wire    []byte
}

// snapshotWires returns a snapshot as the writer emits it (version 2) and
// the checked-in version-1 golden file, so every rejection is tested
// against both versions the reader accepts.
func snapshotWires(t testing.TB) []snapshotWire {
	t.Helper()
	names, ix := snapshotCorpus(8, 5)
	var buf bytes.Buffer
	if err := WriteCorpusSnapshot(&buf, names, ix); err != nil {
		t.Fatal(err)
	}
	v1 := readFixture(t, goldenCorpusV1Path, goldenCorpusV1Len, goldenCorpusV1CRC)
	v1names, _ := goldenCorpus()
	return []snapshotWire{{"v2", names, buf.Bytes()}, {"v1", v1names, v1}}
}

// TestCorpusSnapshotRejectsFlags checks that a snapshot with flag bit 0 set
// (the retired pivot section) is refused with an explicit error before any
// graph is decoded, and that unknown flag bits are refused too.
func TestCorpusSnapshotRejectsFlags(t *testing.T) {
	for _, sw := range snapshotWires(t) {
		if flags := binary.LittleEndian.Uint32(sw.wire[16:]); flags != 0 {
			t.Fatalf("%s: snapshot has flags %#x, want 0", sw.version, flags)
		}
		// Break the first graph record's magic: a reader that decoded graphs
		// before judging the flags would report that instead.
		broken := append([]byte(nil), sw.wire...)
		off := 20
		for _, name := range sw.names {
			off += 4 + len(name)
		}
		broken[off+4] ^= 0xff
		if _, _, err := ReadCorpusSnapshot(bytes.NewReader(withFlags(broken, 0))); err == nil ||
			!strings.Contains(err.Error(), "graph 0") {
			t.Fatalf("%s: flags 0 with a broken graph record: got error %v, want a graph 0 error", sw.version, err)
		}
		for _, tc := range []struct {
			flags uint32
			want  string
		}{
			{1, "pivot section, no longer supported"},
			{3, "pivot section, no longer supported"},
			{2, "unknown corpus snapshot flags"},
		} {
			_, _, err := ReadCorpusSnapshot(bytes.NewReader(withFlags(broken, tc.flags)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s flags %#x: got error %v, want one containing %q", sw.version, tc.flags, err, tc.want)
			}
		}
	}
}

// TestCorpusSnapshotRejects checks that corruption, truncation, trailing
// garbage and unknown versions are all refused before any index is
// installed, in both versions the reader accepts. Bytes between the last
// graph and the CRC are an error in version 2 and the skipped signature
// section in version 1.
func TestCorpusSnapshotRejects(t *testing.T) {
	for _, sw := range snapshotWires(t) {
		wire := sw.wire
		// Truncation at a spread of prefix lengths.
		for _, cut := range []int{0, 4, 11, 19, len(wire) / 3, len(wire) / 2, len(wire) - 5, len(wire) - 1} {
			if _, _, err := ReadCorpusSnapshot(bytes.NewReader(wire[:cut])); err == nil {
				t.Errorf("%s: accepted snapshot truncated to %d/%d bytes", sw.version, cut, len(wire))
			}
		}
		// Trailing garbage after the CRC.
		if _, _, err := ReadCorpusSnapshot(bytes.NewReader(append(append([]byte(nil), wire...), 0))); err == nil {
			t.Errorf("%s: accepted snapshot with a trailing byte", sw.version)
		}
		// Single bit flips at a spread of offsets (CRC catches the payload,
		// header validation catches the rest).
		for _, pos := range []int{0, 9, 13, 17, len(wire) / 4, len(wire) / 2, 3 * len(wire) / 4, len(wire) - 2} {
			bad := append([]byte(nil), wire...)
			bad[pos] ^= 0x10
			if _, _, err := ReadCorpusSnapshot(bytes.NewReader(bad)); err == nil {
				t.Errorf("%s: accepted snapshot with a bit flip at offset %d", sw.version, pos)
			}
		}
		// A resealed version the reader does not know.
		body := append([]byte(nil), wire[:len(wire)-4]...)
		binary.LittleEndian.PutUint32(body[8:], 3)
		if _, _, err := ReadCorpusSnapshot(bytes.NewReader(reseal(body))); err == nil ||
			!strings.Contains(err.Error(), "unsupported corpus snapshot version 3") {
			t.Errorf("%s: version 3: got error %v", sw.version, err)
		}
		// A resealed extra byte before the CRC.
		extra := reseal(append(append([]byte(nil), wire[:len(wire)-4]...), 0))
		_, _, err := ReadCorpusSnapshot(bytes.NewReader(extra))
		if sw.version == "v2" && (err == nil || !strings.Contains(err.Error(), "1 trailing bytes")) {
			t.Errorf("v2: resealed extra byte: got error %v, want a trailing-bytes error", err)
		}
		if sw.version == "v1" && err != nil {
			t.Errorf("v1: resealed extra byte in the skipped section: %v", err)
		}
	}
	// Name-count mismatch on the write side.
	names, ix := snapshotCorpus(8, 5)
	if err := WriteCorpusSnapshot(&bytes.Buffer{}, names[:len(names)-1], ix); err == nil {
		t.Error("writer accepted a name list shorter than the corpus")
	}
}

// FuzzReadCorpusSnapshot checks that arbitrary bytes never panic the corpus
// snapshot reader and that anything it accepts is internally consistent and
// survives a write→read round trip into an equal index. The reader gates
// everything behind the CRC trailer and each graph's validation, so
// acceptance of fuzz-mutated input is itself suspicious — the round trip
// makes sure an accepted mutant is at least a coherent corpus.
func FuzzReadCorpusSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(corpusSnapshotMagic))
	names, ix := snapshotCorpus(6, 31)
	var buf bytes.Buffer
	if err := WriteCorpusSnapshot(&buf, names, ix); err != nil {
		f.Fatal(err)
	}
	wire := buf.Bytes()
	f.Add(append([]byte(nil), wire...))
	f.Add(append([]byte(nil), wire[:len(wire)/2]...))
	mutant := append([]byte(nil), wire...)
	mutant[len(mutant)/3] ^= 0x40
	f.Add(mutant)
	// Sealed headers the reader must refuse on their flags alone: the
	// retired section bit 0, unknown bits, and both together.
	f.Add(withFlags(wire, 1))
	f.Add(withFlags(wire, 2))
	f.Add(withFlags(wire, 3))
	// A version-1 file, whose signature section the reader skips.
	f.Add(readFixture(f, goldenCorpusV1Path, goldenCorpusV1Len, goldenCorpusV1CRC))
	f.Fuzz(func(t *testing.T, data []byte) {
		names, ix, err := ReadCorpusSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(names) != ix.Len() {
			t.Fatalf("accepted snapshot with %d names for %d graphs", len(names), ix.Len())
		}
		for i := 0; i < ix.Len(); i++ {
			if verr := ix.Graph(i).Validate(); verr != nil {
				t.Fatalf("accepted snapshot with invalid graph %d: %v", i, verr)
			}
		}
		var buf bytes.Buffer
		if err := WriteCorpusSnapshot(&buf, names, ix); err != nil {
			t.Fatalf("cannot re-serialize accepted snapshot: %v", err)
		}
		names2, ix2, err := ReadCorpusSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if fmt.Sprint(names2) != fmt.Sprint(names) || !ix2.Equal(ix) {
			t.Fatal("round trip changed the corpus")
		}
	})
}
