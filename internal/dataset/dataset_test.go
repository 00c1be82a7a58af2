package dataset

import (
	"sort"
	"strings"
	"testing"

	"hged/internal/hypergraph"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"PS", "HS", "MO", "WM", "TVG", "AMZ"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d datasets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dataset %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("MO")
	if err != nil {
		t.Fatal(err)
	}
	if s.PaperNodes != 73851 || s.PaperEdges != 5446 {
		t.Fatalf("MO stats wrong: %+v", s)
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}

func TestTableIStatistics(t *testing.T) {
	// The registry must carry Table I verbatim.
	rows := map[string][5]float64{ // n, m, mean, median, labels
		"PS":  {242, 12704, 2.4, 2, 11},
		"HS":  {327, 7818, 2.3, 2, 9},
		"MO":  {73851, 5446, 24.2, 5, 1456},
		"WM":  {88860, 69906, 6.6, 5, 11},
		"TVG": {172738, 233202, 4.1, 3, 160},
		"AMZ": {2268231, 4285363, 17.1, 8, 29},
	}
	for name, want := range rows {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if float64(s.PaperNodes) != want[0] || float64(s.PaperEdges) != want[1] ||
			s.PaperMean != want[2] || float64(s.PaperMedian) != want[3] ||
			float64(s.PaperLabels) != want[4] {
			t.Fatalf("%s registry row deviates from Table I: %+v", name, s)
		}
	}
}

func TestReplicaGeneration(t *testing.T) {
	for _, s := range Registry {
		g, err := s.Replica(0) // default scale
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid replica: %v", s.Name, err)
		}
		if g.NumNodes() != s.ReplicaNodes(s.DefaultScale) {
			t.Fatalf("%s: n=%d, want %d", s.Name, g.NumNodes(), s.ReplicaNodes(s.DefaultScale))
		}
		if g.NumEdges() != s.ReplicaEdges(s.DefaultScale) {
			t.Fatalf("%s: m=%d, want %d", s.Name, g.NumEdges(), s.ReplicaEdges(s.DefaultScale))
		}
		if !strings.Contains(s.TableRow(g), s.Name) {
			t.Fatalf("%s: table row missing name", s.Name)
		}
	}
}

func TestReplicaDeterministic(t *testing.T) {
	s, _ := Lookup("PS")
	a, err := s.Replica(0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Replica(0.05)
	if a.String() != b.String() {
		t.Fatal("replicas must be deterministic")
	}
}

func TestReplicaFloors(t *testing.T) {
	s, _ := Lookup("PS")
	g, err := s.Replica(0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 40 || g.NumEdges() < 60 {
		t.Fatalf("floors not applied: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestSplitRatioAndDisjointness(t *testing.T) {
	s, _ := Lookup("HS")
	g, err := s.Replica(0.05)
	if err != nil {
		t.Fatal(err)
	}
	train, held, err := Split(g, 0.75, 5)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumNodes() != g.NumNodes() {
		t.Fatal("split must keep all nodes")
	}
	if train.NumEdges()+len(held) != g.NumEdges() {
		t.Fatalf("edges lost: %d + %d != %d", train.NumEdges(), len(held), g.NumEdges())
	}
	ratio := float64(train.NumEdges()) / float64(g.NumEdges())
	if ratio < 0.7 || ratio > 0.8 {
		t.Fatalf("train ratio %v far from 0.75", ratio)
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	// Labels preserved.
	for v := 0; v < g.NumNodes(); v++ {
		if train.NodeLabel(hypergraph.NodeID(v)) != g.NodeLabel(hypergraph.NodeID(v)) {
			t.Fatal("node labels lost in split")
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	s, _ := Lookup("HS")
	g, _ := s.Replica(0.05)
	t1, h1, _ := Split(g, 0.75, 9)
	t2, h2, _ := Split(g, 0.75, 9)
	if t1.String() != t2.String() || len(h1) != len(h2) {
		t.Fatal("split must be deterministic by seed")
	}
	_, h3, _ := Split(g, 0.75, 10)
	SortEdges(h1)
	SortEdges(h3)
	same := len(h1) == len(h3)
	if same {
		diff := false
		for i := range h1 {
			if string(h1[i].AppendKey(nil)) != string(h3[i].AppendKey(nil)) {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds should produce different splits")
		}
	}
}

func TestSplitValidation(t *testing.T) {
	g := hypergraph.Fig1()
	if _, _, err := Split(g, 0, 1); err == nil {
		t.Fatal("train fraction 0 must fail")
	}
	if _, _, err := Split(g, 1, 1); err == nil {
		t.Fatal("train fraction 1 must fail")
	}
}

// SortEdges orders hyperedges lexicographically by node set, for
// deterministic comparisons.
func SortEdges(edges []hypergraph.Hyperedge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i].Nodes, edges[j].Nodes
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
