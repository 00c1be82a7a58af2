package hypergraph

import "fmt"

// FromFrozen constructs a hypergraph from decoded flat CSR arrays, the
// path used by the binary graph and corpus-snapshot readers: the edge-major
// arrays are validated, the label dictionary is normalized to the same
// first-seen interning order Freeze would produce, and the node-major
// incidence arrays are derived by one counting transpose. The result keeps
// that CSR as its memoized Freeze view, so loading performs no Freeze
// rebuild, and its member and incidence lists are slices of the same
// arrays.
//
// Inputs: labels is the dictionary, nodeLab/edgeLab hold per-node and
// per-hyperedge dictionary ids, and edge e's members are
// edgeNodes[edgeOff[e]:edgeOff[e+1]], strictly ascending. All slices are
// retained (and nodeLab/edgeLab may be rewritten in place during dictionary
// normalization); the caller must not use them afterwards. A nil edgeOff is
// accepted when there are no hyperedges.
func FromFrozen(labels []Label, nodeLab, edgeLab, edgeOff []int32, edgeNodes []NodeID) (*Hypergraph, error) {
	n, m := len(nodeLab), len(edgeLab)
	if m == 0 && len(edgeOff) == 0 {
		edgeOff = []int32{0}
	}
	if len(edgeOff) != m+1 {
		return nil, fmt.Errorf("hypergraph: %d hyperedge offsets for %d hyperedges (want %d)", len(edgeOff), m, m+1)
	}
	if edgeOff[0] != 0 || int(edgeOff[m]) != len(edgeNodes) {
		return nil, fmt.Errorf("hypergraph: hyperedge offsets span [%d,%d), want [0,%d)", edgeOff[0], edgeOff[m], len(edgeNodes))
	}
	// All offsets must be non-decreasing before any range is sliced; with
	// the [0, len(edgeNodes)] endpoints pinned above, monotonicity also
	// bounds every range.
	for e := 0; e < m; e++ {
		if edgeOff[e+1] < edgeOff[e] {
			return nil, fmt.Errorf("hypergraph: hyperedge %d offsets decrease (%d > %d)", e, edgeOff[e], edgeOff[e+1])
		}
	}
	for e := 0; e < m; e++ {
		a, b := edgeOff[e], edgeOff[e+1]
		prev := NodeID(-1)
		for _, v := range edgeNodes[a:b] {
			if v <= prev {
				return nil, fmt.Errorf("hypergraph: hyperedge %d members not strictly ascending", e)
			}
			if int(v) >= n {
				return nil, fmt.Errorf("hypergraph: hyperedge %d member %d out of range [0,%d)", e, v, n)
			}
			prev = v
		}
	}
	oldL := len(labels)
	for v, id := range nodeLab {
		if id < 0 || int(id) >= oldL {
			return nil, fmt.Errorf("hypergraph: node %d label id %d out of range [0,%d)", v, id, oldL)
		}
	}
	for e, id := range edgeLab {
		if id < 0 || int(id) >= oldL {
			return nil, fmt.Errorf("hypergraph: hyperedge %d label id %d out of range [0,%d)", e, id, oldL)
		}
	}

	// Normalize the dictionary to first-seen interning order (node labels by
	// id, then hyperedge labels by id) so graphs decoded from foreign files
	// intern identically to buildCSR, and the binary writer emits the same
	// bytes for both. Duplicate and unused dictionary entries collapse away
	// here.
	remap := make([]int32, oldL)
	for i := range remap {
		remap[i] = -1
	}
	labelID := make(map[Label]int32, oldL)
	dict := make([]Label, 0, oldL)
	assign := func(old int32) int32 {
		id := remap[old]
		if id >= 0 {
			return id
		}
		l := labels[old]
		id, ok := labelID[l]
		if !ok {
			id = int32(len(dict))
			dict = append(dict, l)
			labelID[l] = id
		}
		remap[old] = id
		return id
	}
	for i, old := range nodeLab {
		nodeLab[i] = assign(old)
	}
	for i, old := range edgeLab {
		edgeLab[i] = assign(old)
	}

	// Counting transpose: derive the node-major incidence arrays from the
	// edge-major ones. Scattering in ascending hyperedge order makes every
	// node's incident-edge list ascending by construction, matching what
	// AddEdge-then-Freeze produces.
	nodeOff := make([]int32, n+1)
	for _, v := range edgeNodes {
		nodeOff[v+1]++
	}
	for v := 0; v < n; v++ {
		nodeOff[v+1] += nodeOff[v]
	}
	nodeEdges := make([]EdgeID, len(edgeNodes))
	next := make([]int32, n)
	copy(next, nodeOff[:n])
	for e := 0; e < m; e++ {
		for _, v := range edgeNodes[edgeOff[e]:edgeOff[e+1]] {
			nodeEdges[next[v]] = EdgeID(e)
			next[v]++
		}
	}

	c := &CSR{
		nodeOff:   nodeOff,
		nodeEdges: nodeEdges,
		edgeOff:   edgeOff,
		edgeNodes: edgeNodes,
		nodeLab:   nodeLab,
		edgeLab:   edgeLab,
		labels:    dict,
		labelID:   labelID,
	}

	// The mutable lists are capacity-capped views of the CSR arrays: an
	// append reallocates and removals reallocate the lists they change, so
	// no mutation ever writes into the CSR kept as the memoized Freeze.
	h := &Hypergraph{
		nodeLabels: make([]Label, n),
		edges:      make([]Hyperedge, m),
		incidence:  make([][]EdgeID, n),
		csr:        c,
	}
	for v := 0; v < n; v++ {
		h.nodeLabels[v] = dict[nodeLab[v]]
		a, b := nodeOff[v], nodeOff[v+1]
		h.incidence[v] = nodeEdges[a:b:b]
	}
	for e := 0; e < m; e++ {
		a, b := edgeOff[e], edgeOff[e+1]
		h.edges[e] = Hyperedge{Label: dict[edgeLab[e]], Nodes: edgeNodes[a:b:b]}
	}
	return h, nil
}
