package hypergraph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		b.Add(i)
	}
	b.Add(65) // duplicate insert is a no-op
	b.Remove(1)
	b.Remove(2) // absent remove is a no-op
	want := []int{0, 63, 64, 65, 127, 129}
	if got := b.Count(); got != len(want) {
		t.Fatalf("Count = %d, want %d", got, len(want))
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach yielded %v, want %v", got, want)
		}
	}
	for i := 0; i < 130; i++ {
		inWant := false
		for _, w := range want {
			if w == i {
				inWant = true
			}
		}
		if b.Has(i) != inWant {
			t.Fatalf("Has(%d) = %v, want %v", i, b.Has(i), inWant)
		}
	}
	b.Grow(1000)
	if !b.Has(129) || b.Count() != len(want) {
		t.Fatal("Grow lost members")
	}
	b.Add(999)
	if !b.Has(999) {
		t.Fatal("Add after Grow failed")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset left members behind")
	}
}

// refNeighbors is the pre-CSR map-based definition of NEI(v), kept as the
// differential oracle.
func refNeighbors(h *Hypergraph, v NodeID) []NodeID {
	seen := map[NodeID]struct{}{v: {}}
	for _, e := range h.IncidentEdges(v) {
		for _, u := range h.Edge(e).Nodes {
			seen[u] = struct{}{}
		}
	}
	out := make([]NodeID, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalNodeIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalEdgeIDs(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkCSRAgrees asserts the frozen CSR view is semantically identical to
// the slice-of-slices representation: per-node incidence, degree, neighbor
// sets, per-edge member lists, label interning round-trips, and the ego
// networks' node/edge sets.
func checkCSRAgrees(t *testing.T, h *Hypergraph) {
	t.Helper()
	c := h.Freeze()
	if c2 := h.Freeze(); c2 != c {
		t.Fatal("repeated Freeze without mutation returned a different instance")
	}
	if c.NumNodes() != h.NumNodes() || c.NumEdges() != h.NumEdges() {
		t.Fatalf("CSR is %dx%d, graph is %dx%d", c.NumNodes(), c.NumEdges(), h.NumNodes(), h.NumEdges())
	}
	incid := 0
	for v := 0; v < h.NumNodes(); v++ {
		id := NodeID(v)
		if c.Degree(id) != h.Degree(id) {
			t.Fatalf("node %d: CSR degree %d, graph degree %d", v, c.Degree(id), h.Degree(id))
		}
		if !equalEdgeIDs(c.IncidentEdges(id), h.IncidentEdges(id)) {
			t.Fatalf("node %d: CSR incidence %v, graph %v", v, c.IncidentEdges(id), h.IncidentEdges(id))
		}
		if got := c.Labels()[c.NodeLabelID(id)]; got != h.NodeLabel(id) {
			t.Fatalf("node %d: interned label %d, graph label %d", v, got, h.NodeLabel(id))
		}
		if want := refNeighbors(h, id); !equalNodeIDs(h.Neighbors(id), want) {
			t.Fatalf("node %d: Neighbors %v, reference %v", v, h.Neighbors(id), want)
		}
		if h.NumNeighbors(id) != len(refNeighbors(h, id)) {
			t.Fatalf("node %d: NumNeighbors %d, reference %d", v, h.NumNeighbors(id), len(refNeighbors(h, id)))
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		id := EdgeID(e)
		if c.Arity(id) != h.Edge(id).Arity() {
			t.Fatalf("edge %d: CSR arity %d, graph arity %d", e, c.Arity(id), h.Edge(id).Arity())
		}
		if !equalNodeIDs(c.Members(id), h.Edge(id).Nodes) {
			t.Fatalf("edge %d: CSR members %v, graph %v", e, c.Members(id), h.Edge(id).Nodes)
		}
		if got := c.Labels()[c.EdgeLabelID(id)]; got != h.Edge(id).Label {
			t.Fatalf("edge %d: interned label %d, graph label %d", e, got, h.Edge(id).Label)
		}
		incid += c.Arity(id)
	}
	if c.Incidences() != incid {
		t.Fatalf("CSR incidences %d, want %d", c.Incidences(), incid)
	}
	// Label dictionary is bijective over the labels actually present.
	for i, l := range c.Labels() {
		id, ok := c.labelID[l]
		if !ok || id != int32(i) {
			t.Fatalf("label %d: dictionary lookup (%d, %v), want (%d, true)", l, id, ok, i)
		}
	}
	// Ego networks: node set is NEI(v) in host ids, edges are exactly the
	// host edges inside it.
	for v := 0; v < h.NumNodes(); v++ {
		ego := h.Ego(NodeID(v))
		want := refNeighbors(h, NodeID(v))
		got := make([]NodeID, ego.NumNodes())
		for i := range got {
			got[i] = ego.OrigID(NodeID(i))
		}
		if !equalNodeIDs(got, want) {
			t.Fatalf("node %d: ego nodes %v, want %v", v, got, want)
		}
		inSet := map[NodeID]bool{}
		for _, u := range want {
			inSet[u] = true
		}
		wantEdges := 0
		for _, e := range h.Edges() {
			inside := true
			for _, u := range e.Nodes {
				if !inSet[u] {
					inside = false
					break
				}
			}
			if inside {
				wantEdges++
			}
		}
		if ego.NumEdges() != wantEdges {
			t.Fatalf("node %d: ego has %d edges, want %d", v, ego.NumEdges(), wantEdges)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// applyMutationScript drives h through a deterministic mutation sequence
// decoded from script bytes, freezing and differentially checking after
// every step — the invalidation contract (AddNode/AddEdge/SetNodeLabel/
// SetEdgeLabel must each discard the frozen view) is exercised on every
// mutation kind.
func applyMutationScript(t *testing.T, script []byte) {
	t.Helper()
	h := New(2)
	for i := 0; i < len(script); i++ {
		op := script[i]
		arg := func() int {
			i++
			if i < len(script) {
				return int(script[i])
			}
			return 0
		}
		switch op % 4 {
		case 0:
			h.AddNode(Label(arg() % 5))
		case 1:
			n := h.NumNodes()
			k := arg()%4 + 1
			nodes := make([]NodeID, k)
			for j := range nodes {
				nodes[j] = NodeID(arg() % n)
			}
			h.AddEdge(Label(arg()%5), nodes...)
		case 2:
			h.SetNodeLabel(NodeID(arg()%h.NumNodes()), Label(arg()%5))
		case 3:
			if h.NumEdges() > 0 {
				h.SetEdgeLabel(EdgeID(arg()%h.NumEdges()), Label(arg()%5))
			}
		}
		checkCSRAgrees(t, h)
	}
}

// TestCSRDifferential runs seeded random mutation sequences through the
// freeze-check cycle.
func TestCSRDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 60)
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		applyMutationScript(t, script)
	}
}

// FuzzCSRDifferential lets the fuzzer search for a mutation sequence where
// the CSR view and the slice-of-slices semantics diverge.
func FuzzCSRDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 1, 0})
	f.Add([]byte{1, 3, 0, 1, 0, 2, 1, 4, 3, 0, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 200 {
			script = script[:200]
		}
		applyMutationScript(t, script)
	})
}
