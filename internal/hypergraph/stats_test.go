package hypergraph

import (
	"reflect"
	"testing"
)

func TestSummarizeFig1(t *testing.T) {
	s := Summarize(Fig1())
	if s.Nodes != 8 || s.Edges != 4 {
		t.Fatalf("n=%d m=%d, want 8,4", s.Nodes, s.Edges)
	}
	if s.Incidences != 13 {
		t.Fatalf("incidences = %d, want 13", s.Incidences)
	}
	if s.MeanEdgeSize != 13.0/4.0 {
		t.Fatalf("mean |E| = %v", s.MeanEdgeSize)
	}
	if s.MedianEdgeSize != 3 {
		t.Fatalf("median |E| = %d, want 3", s.MedianEdgeSize)
	}
	if s.NodeLabels != 3 {
		t.Fatalf("|l(V)| = %d, want 3", s.NodeLabels)
	}
	if s.EdgeLabels != 2 {
		t.Fatalf("edge labels = %d, want 2", s.EdgeLabels)
	}
	if s.MaxDegree != 3 { // u4 is in E1,E2,E4
		t.Fatalf("max degree = %d, want 3", s.MaxDegree)
	}
	if s.MaxEdgeSize != 4 {
		t.Fatalf("max |E| = %d, want 4", s.MaxEdgeSize)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(New(0))
	if s.Nodes != 0 || s.Edges != 0 || s.MeanEdgeSize != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestConnectedComponents(t *testing.T) {
	h := New(6)
	h.AddEdge(NoLabel, 0, 1, 2)
	h.AddEdge(NoLabel, 3, 4)
	// node 5 isolated
	comps := ConnectedComponents(h)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if !reflect.DeepEqual(comps[0], []NodeID{0, 1, 2}) {
		t.Fatalf("comp0 = %v", comps[0])
	}
	if !reflect.DeepEqual(comps[1], []NodeID{3, 4}) {
		t.Fatalf("comp1 = %v", comps[1])
	}
	if !reflect.DeepEqual(comps[2], []NodeID{5}) {
		t.Fatalf("comp2 = %v", comps[2])
	}
}

func TestConnectedComponentsFig1IsConnected(t *testing.T) {
	comps := ConnectedComponents(Fig1())
	if len(comps) != 1 || len(comps[0]) != 8 {
		t.Fatalf("Fig1 should be one component of 8 nodes, got %v", comps)
	}
}

func TestHopDistances(t *testing.T) {
	h := Fig1()
	d := HopDistances(h, U(1), -1)
	// u1 shares E1 with u2,u4 (1 hop); u3,u5,u6,u7,u8 are 2 hops.
	if d[U(1)] != 0 {
		t.Fatalf("d(u1)=%d", d[U(1)])
	}
	if d[U(2)] != 1 || d[U(4)] != 1 {
		t.Fatalf("d(u2)=%d d(u4)=%d, want 1,1", d[U(2)], d[U(4)])
	}
	for _, v := range []NodeID{U(3), U(5), U(6), U(7), U(8)} {
		if d[v] != 2 {
			t.Fatalf("d(%d)=%d, want 2", v, d[v])
		}
	}
}

func TestHopDistancesMaxHops(t *testing.T) {
	h := Fig1()
	d := HopDistances(h, U(1), 1)
	for _, v := range []NodeID{U(3), U(5), U(6), U(7), U(8)} {
		if d[v] != -1 {
			t.Fatalf("d(%d)=%d, want -1 with maxHops=1", v, d[v])
		}
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	h := New(3)
	h.AddEdge(NoLabel, 0, 1)
	d := HopDistances(h, 0, -1)
	if d[2] != -1 {
		t.Fatalf("d(isolated)=%d, want -1", d[2])
	}
}
