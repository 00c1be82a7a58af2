package hgio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

func TestTextRoundTrip(t *testing.T) {
	g := hypergraph.Fig1()
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !hypergraph.Isomorphic(g, back) {
		t.Fatal("text round trip lost structure")
	}
	if back.NodeLabel(hypergraph.U(4)) != hypergraph.LabelCircle {
		t.Fatal("node labels lost")
	}
	if back.Edge(0).Label != hypergraph.LabelOrange {
		t.Fatal("edge labels lost")
	}
}

func TestTextRoundTripRandom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := gen.Uniform(40, 60, 5, 4, 3, seed)
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.String() != back.String() {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestReadTextCommentsAndBlankLines(t *testing.T) {
	in := `# a hypergraph
nodes 3

label 0 7
# an edge
edge 5 0 1 2
`
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 || g.NodeLabel(0) != 7 {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"missing nodes":      "edge 1 0 1\n",
		"label before nodes": "label 0 1\nnodes 2\n",
		"duplicate nodes":    "nodes 2\nnodes 3\n",
		"bad node count":     "nodes x\n",
		"negative nodes":     "nodes -1\n",
		"label arity":        "nodes 2\nlabel 0\n",
		"label range":        "nodes 2\nlabel 9 1\n",
		"edge no label":      "nodes 2\nedge\n",
		"edge bad label":     "nodes 2\nedge x 0\n",
		"edge bad member":    "nodes 2\nedge 1 9\n",
		"unknown directive":  "nodes 2\nfoo\n",
		"empty input":        "",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := hypergraph.Fig1()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != back.String() {
		t.Fatal("JSON round trip mismatch")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON must fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodeLabels":[1],"edges":[{"label":1,"nodes":[5]}]}`)); err == nil {
		t.Fatal("out-of-range member must fail")
	}
}

func TestReadBenson(t *testing.T) {
	nverts := strings.NewReader("3\n2\n")
	simplices := strings.NewReader("1 2 3\n2 4\n")
	labels := strings.NewReader("10\n10\n20\n20\n")
	g, err := ReadBenson(nverts, simplices, labels)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	// 1-indexed input: simplex {1,2,3} → nodes {0,1,2}.
	e := g.Edge(0)
	if e.Arity() != 3 || !e.Contains(0) || !e.Contains(2) {
		t.Fatalf("edge 0 = %v", e)
	}
	if g.NodeLabel(0) != 10 || g.NodeLabel(3) != 20 {
		t.Fatal("labels not applied")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadBensonWithoutLabels(t *testing.T) {
	g, err := ReadBenson(strings.NewReader("2"), strings.NewReader("1 5"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("n=%d, want 5 (max id)", g.NumNodes())
	}
}

func TestReadBensonErrors(t *testing.T) {
	if _, err := ReadBenson(strings.NewReader("3"), strings.NewReader("1 2"), nil); err == nil {
		t.Fatal("count mismatch must fail")
	}
	if _, err := ReadBenson(strings.NewReader("1"), strings.NewReader("0"), nil); err == nil {
		t.Fatal("0-indexed member must fail")
	}
	if _, err := ReadBenson(strings.NewReader("-1"), strings.NewReader(""), nil); err == nil {
		t.Fatal("negative size must fail")
	}
	if _, err := ReadBenson(strings.NewReader("x"), strings.NewReader(""), nil); err == nil {
		t.Fatal("non-integer must fail")
	}
}

// TestReadTextLongLines pins the scanner limits: the buffer starts small
// but still grows for a single edge line past 1 MiB, and a line past the
// 16 MiB cap is rejected rather than read.
func TestReadTextLongLines(t *testing.T) {
	const n = 200_000
	var b strings.Builder
	fmt.Fprintf(&b, "nodes %d\nedge 3", n)
	for v := 0; v < n; v++ {
		fmt.Fprintf(&b, " %d", v)
	}
	b.WriteString("\n")
	if b.Len() < 1<<20 {
		t.Fatalf("edge line is only %d bytes", b.Len())
	}
	g, err := ReadText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("1 MiB edge line: %v", err)
	}
	if g.NumEdges() != 1 || g.Edge(0).Arity() != n || g.Edge(0).Label != 3 {
		t.Fatalf("1 MiB edge line parsed as %d edges, arity %d", g.NumEdges(), g.Edge(0).Arity())
	}

	long := io.MultiReader(
		strings.NewReader("nodes 1\nedge 0"),
		io.LimitReader(repeatReader(" 0"), maxLineBytes+1),
		strings.NewReader("\n"),
	)
	if _, err := ReadText(long); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over %d bytes: err = %v, want bufio.ErrTooLong", maxLineBytes, err)
	}
}

// repeatReader yields s over and over.
type repeatReader string

func (r repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		n += copy(p[n:], r)
	}
	return n, nil
}
