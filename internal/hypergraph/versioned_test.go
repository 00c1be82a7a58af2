package hypergraph

import (
	"math/rand"
	"sync"
	"testing"
)

func TestGenerationPinUnpin(t *testing.T) {
	v := NewVersioned(Fig1())
	if got := v.Published(); got != 1 {
		t.Fatalf("Published = %d, want 1", got)
	}
	gen := v.Pin()
	if gen.Seq() != 1 {
		t.Fatalf("Seq = %d, want 1", gen.Seq())
	}
	if v.PinnedReaders() != 1 || gen.pins.Load() != 1 {
		t.Fatalf("pins = (%d, %d), want (1, 1)", v.PinnedReaders(), gen.pins.Load())
	}
	gen2 := v.Pin()
	if v.PinnedReaders() != 2 {
		t.Fatalf("PinnedReaders = %d, want 2", v.PinnedReaders())
	}
	gen.Unpin()
	gen2.Unpin()
	if v.PinnedReaders() != 0 {
		t.Fatalf("PinnedReaders = %d, want 0", v.PinnedReaders())
	}
}

func TestMVCCPinnedReaderSeesOldGeneration(t *testing.T) {
	v := NewVersioned(Fig1())
	old := v.Pin()
	defer old.Unpin()
	n, m := old.Graph().NumNodes(), old.Graph().NumEdges()

	b := v.Begin()
	x := b.AddNode(9)
	b.AddEdge(99, x, 0)
	b.RemoveEdge(0)
	gen, delta := b.Commit()

	if old.Graph().NumNodes() != n || old.Graph().NumEdges() != m {
		t.Fatalf("pinned generation mutated: (%d,%d) -> (%d,%d)",
			n, m, old.Graph().NumNodes(), old.Graph().NumEdges())
	}
	if err := old.Graph().Validate(); err != nil {
		t.Fatalf("pinned generation invalid after commit: %v", err)
	}
	if gen.Seq() != 2 || v.Current() != gen {
		t.Fatalf("commit did not publish generation 2 (seq=%d)", gen.Seq())
	}
	if gen.Graph().NumNodes() != n+1 || gen.Graph().NumEdges() != m {
		t.Fatalf("new generation = (%d,%d), want (%d,%d)",
			gen.Graph().NumNodes(), gen.Graph().NumEdges(), n+1, m)
	}
	if delta.Seq != 2 || delta.NodesAdded != 1 || delta.EdgesAdded != 1 || delta.EdgesRemoved != 1 {
		t.Fatalf("delta = %+v, want seq 2, +1 node, +1/-1 edges", delta)
	}
	if delta.Full {
		t.Fatal("delta.Full set without node removal")
	}
	if v.Published() != 2 {
		t.Fatalf("Published = %d, want 2", v.Published())
	}
}

func TestMVCCAbortLeavesCurrent(t *testing.T) {
	v := NewVersioned(Fig1())
	cur := v.Current()
	b := v.Begin()
	b.AddNode(5)
	b.Abort()
	if v.Current() != cur || v.Published() != 1 {
		t.Fatal("abort must not publish")
	}
	// writeMu released: a fresh batch can begin and commit.
	b2 := v.Begin()
	b2.AddNode(5)
	if gen, _ := b2.Commit(); gen.Seq() != 2 {
		t.Fatalf("post-abort commit seq = %d, want 2", gen.Seq())
	}
}

func TestMVCCBatchUseAfterCommitPanics(t *testing.T) {
	v := NewVersioned(Fig1())
	b := v.Begin()
	b.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode on a committed batch did not panic")
		}
	}()
	b.AddNode(1)
}

// TestGenerationDifferentialCSR is the MVCC half of the differential
// contract: a random mutation stream applied through Versioned batches must
// publish generations byte-identical to a graph rebuilt from scratch by
// replaying the same prefix.
func TestGenerationDifferentialCSR(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		ops := randomOps(rng, 60)
		v := NewVersioned(New(2))
		scratch := New(2)
		for len(ops) > 0 {
			k := 1 + rng.Intn(4)
			if k > len(ops) {
				k = len(ops)
			}
			b := v.Begin()
			for _, op := range ops[:k] {
				applyBatchOp(b, op)
				applyOp(scratch, op)
			}
			ops = ops[k:]
			gen, _ := b.Commit()
			requireCSRIdentical(t, gen.Graph().Freeze(), scratch.Clone().Freeze())
			if err := gen.Graph().Validate(); err != nil {
				t.Fatalf("seed %d: generation %d invalid: %v", seed, gen.Seq(), err)
			}
		}
	}
}

func applyBatchOp(b *Batch, op mutationOp) {
	switch op.kind {
	case 0:
		b.AddNode(op.label)
	case 1:
		b.AddEdge(op.label, op.nodes...)
	case 2:
		b.RemoveEdge(op.edge)
	case 3:
		b.RemoveNode(op.node)
	case 4:
		b.SetNodeLabel(op.node, op.label)
	case 5:
		b.SetEdgeLabel(op.edge, op.label)
	}
}

// TestMVCCEgoCarryOver checks both halves of incremental ego invalidation:
// egos of nodes outside the delta are carried to the new generation (same
// instance — no recompute), and every node's ego on the new generation
// matches a from-scratch computation.
func TestMVCCEgoCarryOver(t *testing.T) {
	g := New(0)
	for i := 0; i < 8; i++ {
		g.AddNode(Label(1 + i%3))
	}
	// Two components: {0,1,2,3} and {4,5,6,7}.
	g.AddEdge(10, 0, 1)
	g.AddEdge(11, 1, 2, 3)
	g.AddEdge(12, 4, 5)
	g.AddEdge(13, 5, 6, 7)

	v := NewVersioned(g)
	base := v.Current().Graph()
	warm := make([]*Hypergraph, 8)
	for i := range warm {
		warm[i] = base.Ego(NodeID(i))
	}

	b := v.Begin()
	b.AddEdge(14, 0, 2) // touches only component one
	gen, delta := b.Commit()

	for i := 4; i < 8; i++ {
		if delta.Invalidates(NodeID(i)) {
			t.Fatalf("node %d in untouched component marked invalid", i)
		}
		if got := gen.Graph().Ego(NodeID(i)); got != warm[i] {
			t.Fatalf("node %d ego recomputed despite being outside the delta", i)
		}
	}
	for i := 0; i < 4; i++ {
		if !delta.Invalidates(NodeID(i)) {
			t.Fatalf("node %d touched by new edge not marked invalid", i)
		}
	}
	// Every ego on the new generation equals a from-scratch computation
	// (Clone never carries the ego cache, so the comparator recomputes).
	scratch := gen.Graph().Clone()
	for i := 0; i < 8; i++ {
		got := gen.Graph().Ego(NodeID(i)).String()
		want := scratch.Ego(NodeID(i)).String()
		if got != want {
			t.Fatalf("node %d ego diverged after carry-over:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestMVCCRemoveNodeForcesFullInvalidation(t *testing.T) {
	v := NewVersioned(Fig1())
	b := v.Begin()
	b.RemoveNode(0)
	_, delta := b.Commit()
	if !delta.Full {
		t.Fatal("RemoveNode must set Delta.Full")
	}
	if !delta.Invalidates(5) {
		t.Fatal("full delta must invalidate every node")
	}
}

// TestMVCCConcurrentReadersWriter exercises the pin/publish protocol under
// the race detector: readers continuously pin whatever generation is
// current and traverse it while a writer publishes a stream of batches.
func TestMVCCConcurrentReadersWriter(t *testing.T) {
	v := NewVersioned(Fig1())
	const (
		readers = 4
		batches = 40
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen := v.Pin()
				g := gen.Graph()
				n := g.NumNodes()
				for i := 0; i < n; i++ {
					g.Ego(NodeID(i % n))
					g.NumNeighbors(NodeID(i % n))
				}
				if err := g.Validate(); err != nil {
					t.Errorf("reader %d: pinned generation invalid: %v", r, err)
					gen.Unpin()
					return
				}
				gen.Unpin()
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < batches; i++ {
		b := v.Begin()
		for _, op := range randomOps(rng, 3) {
			applyBatchOp(b, op)
		}
		b.Commit()
	}
	close(stop)
	wg.Wait()
	if v.Published() != batches+1 {
		t.Fatalf("Published = %d, want %d", v.Published(), batches+1)
	}
	if v.PinnedReaders() != 0 {
		t.Fatalf("PinnedReaders = %d, want 0 after all readers exit", v.PinnedReaders())
	}
}
