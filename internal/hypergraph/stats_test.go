package hypergraph

import "testing"

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
