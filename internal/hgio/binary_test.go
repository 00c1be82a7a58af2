package hgio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := hypergraph.Fig1()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != back.String() {
		t.Fatal("binary round trip lost structure")
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := gen.Uniform(40, 60, 5, 4, 3, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.String() != back.String() {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	g := hypergraph.New(0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 0 || back.NumEdges() != 0 {
		t.Fatalf("empty graph came back as %dx%d", back.NumNodes(), back.NumEdges())
	}
}

// TestBinaryRejectsCorruption flips every byte of a valid encoding in turn;
// the reader must never return a graph different from the original without
// an error (the checksum or a validation step must catch each flip).
func TestBinaryRejectsCorruption(t *testing.T) {
	g := gen.Uniform(12, 15, 4, 3, 2, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := g.String()
	data := buf.Bytes()
	for i := range data {
		corrupt := make([]byte, len(data))
		copy(corrupt, data)
		corrupt[i] ^= 0x41
		back, err := ReadBinary(bytes.NewReader(corrupt))
		if err == nil && back.String() != want {
			t.Fatalf("byte %d: corruption silently changed the graph", i)
		}
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	g := gen.Uniform(12, 15, 4, 3, 2, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 4, len(data) / 2, len(data) - 1} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes not rejected", cut, len(data))
		}
	}
	if _, err := ReadBinary(bytes.NewReader(append(data, 0))); err == nil {
		t.Fatal("trailing byte not rejected")
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("HGEDIDX1xxxxxxxxxxxxxxxx")); err == nil {
		t.Fatal("wrong magic not rejected")
	}
}

func TestBinaryFileAndReadFile(t *testing.T) {
	g := gen.Uniform(20, 25, 4, 3, 2, 3)
	path := filepath.Join(t.TempDir(), "g.hgb")
	if err := WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != back.String() {
		t.Fatal("file round trip mismatch")
	}
	// Atomic write: no temp litter next to the target.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("write left %d directory entries, want 1", len(entries))
	}
}

// FuzzReadBinary lets the fuzzer mutate valid encodings; the reader must
// never panic, and everything it accepts must re-encode to the same bytes
// (a canonical-form check: the CSR encoding of a graph is unique).
func FuzzReadBinary(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.Uniform(8, 10, 3, 3, 2, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("accepted graph fails to re-encode: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-encoded graph rejected: %v", err)
		}
		if g.String() != back.String() {
			t.Fatal("re-encode round trip mismatch")
		}
	})
}
