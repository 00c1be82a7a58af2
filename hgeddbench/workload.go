package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hged"
)

// opKind is one kind of client request.
type opKind int

const (
	opDistance opKind = iota
	opSigma
	opRange
	opKNN
	opMutate
	opUpload
	opDelete
	opHEP
	numKinds
)

var kindNames = [numKinds]string{"distance", "sigma", "range", "knn", "mutate", "upload", "delete", "hep"}

func (k opKind) String() string { return kindNames[k] }

// Request parameters. Every synchronous request carries an expansion cap,
// as a real client sends; the values follow the paper's experiments (τ=10
// for node distances as in E5, λ=3 and τ=5 for HEP as in E6).
const (
	distanceTau   = 10
	sigmaBudget   = 15
	sigmaBatch    = 16
	rangeTau      = 2
	knnK          = 3
	hepLambda     = 3
	hepTau        = 5
	hepParallel   = 2
	syncExpansion = 20_000
)

// op is one request, fully determined by the workload's generator.
type op struct {
	kind  opKind
	graph string // target graph; the named query graph for searches
	u, v  int
	pairs [][2]int
	add   *edgeSpec // mutate: the hyperedge to add, or nil to remove one
	edge  int       // mutate: the hyperedge id removed (or expected to be added)
	text  string    // upload: the graph in .hg text
}

type edgeSpec struct {
	Label int   `json:"label"`
	Nodes []int `json:"nodes"`
}

// method, path and body of the HTTP request that carries o.
func (o *op) request() (method, path string, body []byte) {
	var v any
	switch o.kind {
	case opDistance:
		method, path = "POST", "/v1/graphs/"+o.graph+"/distance"
		v = map[string]any{"u": o.u, "v": o.v, "tau": distanceTau, "explain": true, "maxExpansions": syncExpansion}
	case opSigma:
		method, path = "POST", "/v1/graphs/"+o.graph+"/sigma"
		v = map[string]any{"pairs": o.pairs, "budget": sigmaBudget, "maxExpansions": syncExpansion}
	case opRange:
		method, path = "POST", "/v1/search"
		v = map[string]any{"query": map[string]string{"name": o.graph}, "tau": rangeTau, "maxExpansions": syncExpansion}
	case opKNN:
		method, path = "POST", "/v1/search"
		v = map[string]any{"query": map[string]string{"name": o.graph}, "k": knnK, "maxExpansions": syncExpansion}
	case opMutate:
		method, path = "POST", "/v1/graphs/"+o.graph+"/edges"
		if o.add != nil {
			v = map[string]any{"addEdges": []edgeSpec{*o.add}}
		} else {
			v = map[string]any{"removeEdges": []int{o.edge}}
		}
	case opUpload:
		method, path = "POST", "/v1/graphs"
		v = map[string]any{"name": o.graph, "format": "hg", "data": o.text}
	case opDelete:
		return "DELETE", "/v1/graphs/" + o.graph, nil
	case opHEP:
		method, path = "POST", "/v1/graphs/"+o.graph+"/predict"
		v = map[string]any{"lambda": hepLambda, "tau": hepTau, "parallelism": hepParallel}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode %s request: %v", o.kind, err)) // only plain maps and slices are encoded
	}
	return method, path, body
}

// graphText is one graph the set-up uploads.
type graphText struct {
	name string
	text string
}

// inputs are everything a workload generates from its seed before set-up.
type inputs struct {
	seed      int64
	uploads   []graphText
	initIndex bool // set-up ends with the first search-index build
}

// workload is one traffic mix. Its generator turns the seed into an endless
// request sequence that depends on the seed alone, never on timing or on a
// reply.
type workload struct {
	name string
	// setupRuns is how many identical set-ups one run times.
	setupRuns int
	// warmup chunks are sent before the measured phase.
	warmup int
	// prefix is the number of leading operations whose work counters must
	// repeat exactly between runs of one binary and seed.
	prefix int
	inputs func(seed int64) *inputs
	// fill appends one step's operations.
	fill func(g *generator, ops []op) []op
	// chunkSteps steps make one chunk: a pass sends a chunk, then checks
	// its replies (see pass.chunk).
	chunkSteps int
	// focus lists the operation kinds the workload is about; the side
	// traffic sends the others (see sideRound).
	focus []opKind
	// release returns free memory to the OS after each chunk, not just
	// collecting it. A HEP job leaves tens of MiB of garbage; without the
	// release, the next chunk's requests race the background scavenger
	// returning it, and a 1 MiB parse buffer faults its pages in or not
	// depending on how far it got.
	release bool
}

var workloads = map[string]*workload{
	"serve-explain": {
		name:       "serve-explain",
		setupRuns:  31,
		warmup:     2,
		prefix:     1000,
		inputs:     serveInputs,
		fill:       serveFill,
		chunkSteps: 50,
		focus:      []opKind{opDistance, opSigma},
	},
	"corpus-churn": {
		name:       "corpus-churn",
		setupRuns:  11,
		warmup:     8,
		prefix:     1000,
		inputs:     churnInputs,
		fill:       churnFill,
		chunkSteps: 10,
		focus:      []opKind{opRange, opKNN, opMutate, opUpload, opDelete},
	},
	"hep-jobs": {
		name:       "hep-jobs",
		setupRuns:  31,
		warmup:     1,
		prefix:     211,
		inputs:     hepInputs,
		fill:       hepFill,
		chunkSteps: 17,
		focus:      []opKind{opHEP},
		release:    true,
	},
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func hgText(g *hged.Hypergraph) string {
	var sb strings.Builder
	if err := hged.WriteHG(&sb, g); err != nil {
		panic(fmt.Sprintf("write .hg text: %v", err)) // a strings.Builder never fails
	}
	return sb.String()
}

// sideGraphs are the small graphs every workload loads for its side traffic.
// They do not depend on the seed.
func sideGraphs() []graphText {
	seed, steps, err := hged.GenerateGrowth(hged.GrowthConfig{SeedNodes: 8, SeedEdges: 8, Steps: 16, Seed: 7})
	if err != nil {
		panic(fmt.Sprintf("growth generator: %v", err)) // constant, valid configuration
	}
	hged.ApplyGrowth(seed, steps)
	out := []graphText{{"side", hgText(seed)}, {sideMutate, hgText(hged.GenerateUniform(12, 8, 3, 4, 3, 300))}}
	for i := 0; i < sideQueries; i++ {
		out = append(out, graphText{fmt.Sprintf("side-q%02d", i), hgText(hged.GenerateUniform(3+i%2, 2, 3, 4, 3, int64(100+i)))})
	}
	return append(out, graphText{sideUpload, hgText(hged.GenerateUniform(4, 2, 3, 4, 3, 200))})
}

// Side graphs that side traffic changes: sideMutate takes the edge
// batches, sideUpload is deleted and re-uploaded. The graph the other side
// requests read ("side") never changes, so those requests cost the same in
// every round.
const (
	sideMutate = "side-mut"
	sideUpload = "side-up"
)

// sideQueries small graphs serve as side search queries. kNN verifies its
// first round of 16 candidates (in lower-bound order) without a threshold;
// with at least that many small graphs loaded, the large focus graph is
// never among them and is pruned by its bound.
const sideQueries = 20

func replicaText(name string) string {
	spec, err := hged.LookupDataset(name)
	if err != nil {
		panic(err) // the names used here are in the registry
	}
	g, err := spec.Replica(0)
	if err != nil {
		panic(fmt.Sprintf("replica %s: %v", name, err))
	}
	return hgText(g)
}

func serveInputs(seed int64) *inputs {
	return &inputs{seed: seed, uploads: append([]graphText{{"mo", replicaText("MO")}}, sideGraphs()...)}
}

func hepInputs(seed int64) *inputs {
	return &inputs{seed: seed, uploads: append([]graphText{{"hs", replicaText("HS")}}, sideGraphs()...)}
}

// corpus-churn uploads churnCorpus small uniform graphs drawn from a fixed
// seed: --seed draws the request sequence only, so every seed searches and
// changes the same graphs.
const (
	churnCorpus     = 256
	churnCorpusSeed = 256
)

func churnInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(churnCorpusSeed))
	in := &inputs{seed: seed, initIndex: true}
	for i := 0; i < churnCorpus; i++ {
		g := hged.GenerateUniform(3+rng.Intn(3), 1+rng.Intn(3), 3, 3, 2, rng.Int63()+1)
		in.uploads = append(in.uploads, graphText{fmt.Sprintf("c%03d", i), hgText(g)})
	}
	in.uploads = append(in.uploads, sideGraphs()...)
	return in
}

// generator yields the request sequence of one pass. It keeps its own
// view of the graphs it draws requests from — each as uploaded, plus
// whether the hyperedge the benchmark adds is pending — so it never reads
// a reply, and a whole chunk can be drawn before any reply is checked.
type generator struct {
	w      *workload
	rng    *rand.Rand
	steps  int
	side   [numKinds]bool // kinds the side traffic sends
	graphs map[string]*genGraph
	// serve-explain: the hot σ pairs that make the memo hit
	hot [][2]int
}

type genGraph struct {
	text    string
	g       *hged.Hypergraph
	pending bool
}

func newGenerator(w *workload, in *inputs) (*generator, error) {
	g := &generator{w: w, rng: rand.New(rand.NewSource(in.seed ^ 0x5eed)), graphs: map[string]*genGraph{}}
	for k := opKind(0); k < numKinds; k++ {
		g.side[k] = true
	}
	for _, k := range w.focus {
		g.side[k] = false
	}
	for _, u := range in.uploads {
		h, err := hged.ReadHG(strings.NewReader(u.text))
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", u.name, err)
		}
		g.graphs[u.name] = &genGraph{text: u.text, g: h}
	}
	return g, nil
}

// chunk draws one period of the workload's schedule: w.chunkSteps steps.
func (g *generator) chunk() []op {
	var ops []op
	for i := 0; i < g.w.chunkSteps; i++ {
		ops = g.w.fill(g, ops)
		g.steps++
	}
	return ops
}

// adjacentPair draws two distinct members of a uniformly chosen hyperedge
// with at least two members.
func adjacentPair(rng *rand.Rand, h *hged.Hypergraph) (int, int) {
	for {
		e := h.Edge(hged.EdgeID(rng.Intn(h.NumEdges())))
		if len(e.Nodes) < 2 {
			continue
		}
		i := rng.Intn(len(e.Nodes))
		j := rng.Intn(len(e.Nodes) - 1)
		if j >= i {
			j++
		}
		return int(e.Nodes[i]), int(e.Nodes[j])
	}
}

// mutateOp adds a hyperedge copied from a template (the hyperedge-copying
// growth model: each template member kept with probability ½, plus one
// uniformly drawn node) or, when the hyperedge it added last is still
// there, removes it. Graph sizes therefore stay stationary, and the added
// hyperedge always has the id after the uploaded ones.
func (g *generator) mutateOp(rng *rand.Rand, name string) op {
	gg := g.graphs[name]
	h := gg.g
	o := op{kind: opMutate, graph: name, edge: h.NumEdges()}
	if gg.pending {
		gg.pending = false
		return o
	}
	gg.pending = true
	tmpl := h.Edge(hged.EdgeID(rng.Intn(h.NumEdges())))
	members := []int{rng.Intn(h.NumNodes())}
	for _, v := range tmpl.Nodes {
		if rng.Intn(2) == 0 {
			members = append(members, int(v))
		}
	}
	o.add = &edgeSpec{Label: rng.Intn(3), Nodes: members}
	return o
}

func (g *generator) reupload(ops []op, name string) []op {
	gg := g.graphs[name]
	gg.pending = false
	return append(ops, op{kind: opDelete, graph: name}, op{kind: opUpload, graph: name, text: gg.text})
}

// sideRound sends one request of every kind the workload does not focus
// on, against the small side graphs, so that every run reports every
// end-to-end metric. It is a small, fixed share of each workload's time.
//
// Side requests do not depend on the seed and repeat from round to round
// (only the mutation alternates between adding and removing a hyperedge),
// so their latencies are steady even though a run sends few of them. The
// re-upload comes first and only when withUpload is set: its 1 MiB parse
// buffer is a quarter of a small heap's collection budget, so it goes
// right after the chunk's forced collection, where it never starts one.
func (g *generator) sideRound(ops []op, withUpload bool) []op {
	rng := rand.New(rand.NewSource(1))
	const query = "side-q00"
	side := g.graphs["side"].g
	if withUpload && g.side[opUpload] {
		ops = g.reupload(ops, sideUpload)
	}
	for k := opKind(0); k < numKinds; k++ {
		if !g.side[k] {
			continue
		}
		switch k {
		case opDistance:
			u, v := adjacentPair(rng, side)
			ops = append(ops, op{kind: opDistance, graph: "side", u: u, v: v})
		case opSigma:
			pairs := make([][2]int, sigmaBatch)
			for i := range pairs {
				pairs[i] = [2]int{rng.Intn(side.NumNodes()), rng.Intn(side.NumNodes())}
			}
			ops = append(ops, op{kind: opSigma, graph: "side", pairs: pairs})
		case opRange, opKNN:
			ops = append(ops, op{kind: k, graph: query})
		case opMutate:
			ops = append(ops, g.mutateOp(rng, sideMutate))
		case opHEP:
			ops = append(ops, op{kind: opHEP, graph: "side"})
		}
	}
	return ops
}

// serveFill alternates /distance on hyperedge-adjacent pairs with /sigma
// batches whose pairs are half drawn from a small hot set (memo hits after
// first use) and half fresh adjacent pairs. Each chunk of 50 steps starts
// with a side round.
func serveFill(g *generator, ops []op) []op {
	mo := g.graphs["mo"].g
	if g.hot == nil {
		g.hot = make([][2]int, 128)
		for i := range g.hot {
			u, v := adjacentPair(g.rng, mo)
			g.hot[i] = [2]int{u, v}
		}
	}
	if g.steps%g.w.chunkSteps == 0 {
		ops = g.sideRound(ops, true)
	}
	u, v := adjacentPair(g.rng, mo)
	ops = append(ops, op{kind: opDistance, graph: "mo", u: u, v: v})
	pairs := make([][2]int, sigmaBatch)
	for i := range pairs {
		if i%2 == 0 {
			pairs[i] = g.hot[g.rng.Intn(len(g.hot))]
		} else {
			u, v := adjacentPair(g.rng, mo)
			pairs[i] = [2]int{u, v}
		}
	}
	return append(ops, op{kind: opSigma, graph: "mo", pairs: pairs})
}

// churnFill sends one search per step (range and kNN alternate, by name of
// a random corpus member). Half the steps put a mutation batch on a random
// member in front of the search, one in ten a delete and re-upload, so
// most searches follow a write. Each chunk of 10 steps starts with a side
// round.
func churnFill(g *generator, ops []op) []op {
	if g.steps%g.w.chunkSteps == 0 {
		ops = g.sideRound(ops, true)
	}
	member := func() string { return fmt.Sprintf("c%03d", g.rng.Intn(churnCorpus)) }
	switch r := g.rng.Intn(10); {
	case r == 0:
		ops = g.reupload(ops, member())
	case r <= 5:
		ops = append(ops, g.mutateOp(g.rng, member()))
	}
	kind := opRange
	if g.steps%2 == 1 {
		kind = opKNN
	}
	return append(ops, op{kind: kind, graph: member()})
}

// hepFill sends sixteen side rounds, the first with the re-upload, then
// submits one HEP job on the HS replica and waits for it.
func hepFill(g *generator, ops []op) []op {
	if step := g.steps % g.w.chunkSteps; step < g.w.chunkSteps-1 {
		return g.sideRound(ops, step == 0)
	}
	return append(ops, op{kind: opHEP, graph: "hs"})
}
