package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"time"

	"hged"
	"hged/internal/server"
)

// model is the benchmark's own copy of the server state: the same graphs,
// changed by the same batches, with the facade structures the handlers
// build (σ predictors, the search index). Every reply is checked against
// the answer the model computes through the hged facade for the same graph
// generation, and in the traced run the model's facade calls are the child
// spans of the handler span. The model never shares a graph instance with
// the server, so replaying neither warms nor cools the server's caches.
type model struct {
	graphs map[string]*mgraph
	epochs int64

	// the search index over the sorted corpus, keyed like the server's
	ix     *hged.SearchIndex
	ixFP   string
	ixKeys []string

	// HEP answers per graph generation: every job on one generation must
	// return the same predictions.
	hep map[string]hepAnswer
}

type mgraph struct {
	name  string
	epoch int64
	vg    *hged.VersionedGraph
	sigma *hged.Predictor
}

func (g *mgraph) current() *hged.Hypergraph { return g.vg.Current().Graph() }

// key names one generation of one registration of the graph.
func (g *mgraph) key() string {
	return fmt.Sprintf("%s@%d@%d", g.name, g.epoch, g.vg.Current().Seq())
}

type hepAnswer struct {
	preds []hged.Prediction
	stats hged.PredictStats
}

func newModel(in *inputs) (*model, error) {
	m := &model{graphs: map[string]*mgraph{}, hep: map[string]hepAnswer{}}
	for _, u := range in.uploads {
		g, err := hged.ReadHG(strings.NewReader(u.text))
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", u.name, err)
		}
		m.add(u.name, g)
	}
	return m, nil
}

func (m *model) add(name string, g *hged.Hypergraph) {
	m.epochs++
	m.graphs[name] = &mgraph{name: name, epoch: m.epochs, vg: hged.NewVersionedGraph(g)}
}

// spans collects what one replay did: the durations of its facade calls
// (the child spans of the handler span in a traced pass) and their work.
type spans struct {
	pin, ego, solve, explain, sigma, refresh, query, commit, parse time.Duration

	egoCalls, solves, exceeded int
	explained                  bool
	expanded                   int64

	sigmaLookups, sigmaHits, sigmaComputed int
	sigmaExpanded                          int64

	refreshed                              bool
	rows, rowsReused, verified, candidates int

	invalidated int

	hep             *hged.PredictStats
	jobWait, jobRun time.Duration // from the job's status timestamps

	// measureAlloc asks the upload replay to count the parse's allocations
	// into parseAlloc (traced pass only).
	measureAlloc bool
	parseAlloc   uint64
}

func (s *spans) children() time.Duration {
	return s.pin + s.ego + s.solve + s.explain + s.sigma + s.refresh + s.query + s.commit + s.parse
}

// reply is what the server answered.
type reply struct {
	status int
	body   []byte
	job    *server.JobView // HEP: the finished job's status
}

// apply replays o on the model through the facade, checks the server's
// reply against the model's answer, and folds the answer into the digest
// d. It returns an error when the reply is wrong.
func (m *model) apply(o *op, r *reply, sp *spans, d *digest) error {
	switch o.kind {
	case opDistance:
		return m.distance(o, r, sp, d)
	case opSigma:
		return m.sigmaBatch(o, r, sp, d)
	case opRange, opKNN:
		return m.search(o, r, sp, d)
	case opMutate:
		return m.mutate(o, r, sp, d)
	case opUpload:
		return m.upload(o, r, sp, d)
	case opDelete:
		if r.status != 200 {
			return fmt.Errorf("status %d: %s", r.status, r.body)
		}
		delete(m.graphs, o.graph)
		return nil
	case opHEP:
		return m.predict(o, r, sp, d)
	}
	return fmt.Errorf("unknown operation kind %d", o.kind)
}

func decode(r *reply, want int, v any) error {
	if r.status != want {
		return fmt.Errorf("status %d, want %d: %s", r.status, want, bytes.TrimSpace(r.body))
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	return nil
}

// egoNamer renders explanation slots the way the distance handler does.
func egoNamer(eu *hged.Hypergraph) *hged.Namer {
	return &hged.Namer{
		Node: func(slot int) string {
			if slot < eu.NumNodes() {
				return fmt.Sprintf("node %d", eu.OrigID(hged.NodeID(slot)))
			}
			return fmt.Sprintf("new node #%d", slot)
		},
		Edge: func(slot int) string {
			if slot < eu.NumEdges() {
				return fmt.Sprintf("hyperedge #%d", slot)
			}
			return fmt.Sprintf("new hyperedge #%d", slot)
		},
	}
}

func (m *model) distance(o *op, r *reply, sp *spans, d *digest) error {
	mg := m.graphs[o.graph]
	t0 := time.Now()
	gen := mg.vg.Pin()
	g := gen.Graph()
	t1 := time.Now()
	eu, ev := g.Ego(hged.NodeID(o.u)), g.Ego(hged.NodeID(o.v))
	t2 := time.Now()
	res := hged.BFS(eu, ev, hged.Options{Threshold: distanceTau, MaxExpansions: syncExpansion})
	t3 := time.Now()
	var pathJSON bytes.Buffer
	if res.Path != nil {
		sp.explained = true
		hged.Explain(res.Path, egoNamer(eu))
		if err := hged.WritePathJSON(&pathJSON, res.Path); err != nil {
			return fmt.Errorf("facade path encoding: %w", err)
		}
	}
	t4 := time.Now()
	gen.Unpin()
	sp.pin, sp.ego, sp.solve, sp.explain = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	sp.egoCalls, sp.solves, sp.expanded = 2, 1, res.Expanded
	if res.Exceeded {
		sp.exceeded = 1
	}

	var resp struct {
		Distance    int             `json:"distance"`
		Within      *bool           `json:"within"`
		Exact       bool            `json:"exact"`
		Exceeded    bool            `json:"exceeded"`
		Expanded    int64           `json:"expanded"`
		Explanation []string        `json:"explanation"`
		Ops         json.RawMessage `json:"ops"`
	}
	if err := decode(r, 200, &resp); err != nil {
		return err
	}
	d.add(int64(resp.Distance), b2i(resp.Exceeded), resp.Expanded)
	switch {
	case resp.Distance != res.Distance || resp.Exceeded != res.Exceeded || resp.Exact != res.Exact || resp.Expanded != res.Expanded:
		return fmt.Errorf("σ(%d,%d) = %d (exceeded %v, exact %v, %d expanded), facade gives %d (%v, %v, %d)",
			o.u, o.v, resp.Distance, resp.Exceeded, resp.Exact, resp.Expanded, res.Distance, res.Exceeded, res.Exact, res.Expanded)
	case resp.Within == nil:
		return fmt.Errorf("σ(%d,%d): no within flag at τ=%d", o.u, o.v, distanceTau)
	case res.Exact && *resp.Within != (resp.Distance <= distanceTau):
		return fmt.Errorf("σ(%d,%d) = %d but within=%v at τ=%d", o.u, o.v, resp.Distance, *resp.Within, distanceTau)
	}
	if res.Path == nil {
		return nil
	}
	// The reply embeds the path JSON compacted.
	var want bytes.Buffer
	if err := json.Compact(&want, pathJSON.Bytes()); err != nil {
		return fmt.Errorf("facade path encoding: %w", err)
	}
	if !bytes.Equal(resp.Ops, want.Bytes()) {
		return fmt.Errorf("σ(%d,%d): edit path %s, facade %s", o.u, o.v, resp.Ops, want.Bytes())
	}
	path, err := hged.ReadPathJSON(bytes.NewReader(resp.Ops))
	if err != nil {
		return fmt.Errorf("σ(%d,%d): edit path: %w", o.u, o.v, err)
	}
	if path.Cost() != resp.Distance || len(resp.Explanation) != len(path.Ops) {
		return fmt.Errorf("σ(%d,%d) = %d but the path costs %d with %d sentences", o.u, o.v, resp.Distance, path.Cost(), len(resp.Explanation))
	}
	got, err := path.Apply(eu)
	if err != nil {
		return fmt.Errorf("σ(%d,%d): replaying the edit path: %w", o.u, o.v, err)
	}
	if !witnessed(got, ev, path, eu.NumNodes(), res.Path.Mapping) {
		return fmt.Errorf("σ(%d,%d): the edit path does not turn ego(u) into ego(v)", o.u, o.v)
	}
	return nil
}

// sigmaPredictor mirrors the server's per-graph memoizing σ predictor.
func (mg *mgraph) sigmaPredictor() (*hged.Predictor, error) {
	if mg.sigma == nil {
		p, err := hged.NewPredictor(mg.current(), hged.PredictOptions{Algorithm: hged.AlgBFS, MaxExpansions: syncExpansion})
		if err != nil {
			return nil, fmt.Errorf("facade predictor: %w", err)
		}
		mg.sigma = p
	}
	return mg.sigma, nil
}

func (m *model) sigmaBatch(o *op, r *reply, sp *spans, d *digest) error {
	pred, err := m.graphs[o.graph].sigmaPredictor()
	if err != nil {
		return err
	}
	before := pred.Stats()
	type result struct {
		U, V, Distance int
		Within         bool
	}
	want := make([]result, len(o.pairs))
	t0 := time.Now()
	for i, p := range o.pairs {
		dist, within := pred.Sigma(hged.NodeID(p[0]), hged.NodeID(p[1]), sigmaBudget)
		want[i] = result{p[0], p[1], dist, within}
	}
	sp.sigma = time.Since(t0)
	after := pred.Stats()
	sp.sigmaLookups = len(o.pairs)
	sp.sigmaHits = after.PairsCached - before.PairsCached
	sp.sigmaComputed = after.PairsComputed - before.PairsComputed
	sp.sigmaExpanded = after.Expanded - before.Expanded

	var resp struct {
		Results []result
		Cache   hged.PredictStats
	}
	if err := decode(r, 200, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("σ batch: %d results for %d pairs", len(resp.Results), len(want))
	}
	for i, w := range want {
		if resp.Results[i] != w {
			return fmt.Errorf("σ batch pair %d: server %+v, facade %+v", i, resp.Results[i], w)
		}
		d.add(int64(w.Distance), b2i(w.Within))
	}
	if resp.Cache != after {
		return fmt.Errorf("σ cache counters: server %+v, facade %+v", resp.Cache, after)
	}
	d.add(int64(after.PairsComputed), int64(after.PairsCached), after.Expanded)
	return nil
}

// corpus returns the model's graphs in the server's corpus order (sorted
// by name) with the fingerprint the server keys its index on.
func (m *model) corpus() (fp string, keys []string, graphs []*hged.Hypergraph) {
	names := make([]string, 0, len(m.graphs))
	for n := range m.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mg := m.graphs[n]
		keys = append(keys, mg.key())
		graphs = append(graphs, mg.current())
	}
	return strings.Join(keys, "\x1e"), keys, graphs
}

func (m *model) search(o *op, r *reply, sp *spans, d *digest) error {
	t0 := time.Now()
	fp, keys, graphs := m.corpus()
	if m.ix == nil || fp != m.ixFP {
		sp.refreshed = true
		prev := make(map[string]int, len(m.ixKeys))
		for i, k := range m.ixKeys {
			prev[k] = i
		}
		reuse := make([]int, len(keys))
		for i, k := range keys {
			reuse[i] = -1
			if j, ok := prev[k]; ok && m.ix != nil {
				reuse[i] = j
				sp.rowsReused++
			}
		}
		if m.ix == nil {
			m.ix = hged.BuildSearchIndex(graphs)
		} else {
			m.ix = hged.BuildSearchIndexReusing(graphs, m.ix, reuse)
		}
		m.ixFP, m.ixKeys = fp, keys
		sp.rows = len(keys)
	}
	t1 := time.Now()
	ix := *m.ix
	ix.MaxExpansions = syncExpansion
	q := m.graphs[o.graph].current()
	var (
		matches []hged.SearchMatch
		stats   hged.FilterStats
		err     error
	)
	if o.kind == opKNN {
		matches, stats, err = ix.NearestContext(context.Background(), q, knnK)
	} else {
		matches, stats, err = ix.SearchContext(context.Background(), q, rangeTau)
	}
	sp.refresh, sp.query = t1.Sub(t0), time.Since(t1)
	if err != nil {
		return fmt.Errorf("facade search: %w", err)
	}
	sp.verified, sp.candidates = stats.Verified, stats.Candidates

	type match struct {
		Name     string
		Distance int
	}
	var resp struct {
		Matches []match
		Stats   hged.FilterStats
	}
	if err := decode(r, 200, &resp); err != nil {
		return err
	}
	if len(resp.Matches) != len(matches) || resp.Stats != stats {
		return fmt.Errorf("%s %s: server %d matches %+v, facade %d matches %+v", o.kind, o.graph, len(resp.Matches), resp.Stats, len(matches), stats)
	}
	for i, mt := range matches {
		name := keys[mt.ID][:strings.IndexByte(keys[mt.ID], '@')]
		if resp.Matches[i] != (match{name, mt.Distance}) {
			return fmt.Errorf("%s %s match %d: server %+v, facade %s at %d", o.kind, o.graph, i, resp.Matches[i], name, mt.Distance)
		}
		d.addString(name)
		d.add(int64(mt.Distance))
	}
	d.add(int64(stats.Verified), int64(stats.Candidates))
	return nil
}

func (m *model) mutate(o *op, r *reply, sp *spans, d *digest) error {
	mg := m.graphs[o.graph]
	t0 := time.Now()
	b := mg.vg.Begin()
	if o.add != nil {
		members := make([]hged.NodeID, len(o.add.Nodes))
		for i, v := range o.add.Nodes {
			members[i] = hged.NodeID(v)
		}
		b.AddEdge(hged.Label(o.add.Label), members...)
	} else {
		b.RemoveEdge(hged.EdgeID(o.edge))
	}
	gen, delta := b.Commit()
	sp.commit = time.Since(t0)
	if !delta.Full {
		sp.invalidated = delta.Invalid.Count()
	}
	if mg.sigma != nil {
		if delta.Full {
			mg.sigma = mg.sigma.Rebase(gen.Graph(), nil)
		} else {
			mg.sigma = mg.sigma.Rebase(gen.Graph(), delta.Invalidates)
		}
	}

	var resp struct {
		Generation int64
		AddedEdges []int
		Stats      hged.Stats
	}
	if err := decode(r, 200, &resp); err != nil {
		return err
	}
	g := gen.Graph()
	wantAdded := 0
	if o.add != nil {
		wantAdded = 1
	}
	switch {
	case resp.Generation != gen.Seq():
		return fmt.Errorf("mutate %s: generation %d, want %d", o.graph, resp.Generation, gen.Seq())
	case len(resp.AddedEdges) != wantAdded || (wantAdded == 1 && resp.AddedEdges[0] != o.edge):
		return fmt.Errorf("mutate %s: added edges %v, want [%d]", o.graph, resp.AddedEdges, o.edge)
	case resp.Stats.Nodes != g.NumNodes() || resp.Stats.Edges != g.NumEdges():
		return fmt.Errorf("mutate %s: %d nodes %d edges, want %d and %d", o.graph, resp.Stats.Nodes, resp.Stats.Edges, g.NumNodes(), g.NumEdges())
	}
	d.add(resp.Generation, int64(g.NumEdges()), int64(sp.invalidated))
	return nil
}

func (m *model) upload(o *op, r *reply, sp *spans, d *digest) error {
	var rt0 runtimeSample
	if sp.measureAlloc {
		rt0 = readRuntime()
	}
	t0 := time.Now()
	g, err := hged.ReadHG(strings.NewReader(o.text))
	sp.parse = time.Since(t0)
	if sp.measureAlloc {
		sp.parseAlloc = readRuntime().sub(rt0).allocBytes
	}
	if err != nil {
		return fmt.Errorf("facade parse: %w", err)
	}
	m.add(o.graph, g)
	var resp struct {
		Name       string
		Generation int64
		Stats      hged.Stats
	}
	if err := decode(r, 201, &resp); err != nil {
		return err
	}
	if resp.Name != o.graph || resp.Generation != 1 || resp.Stats.Nodes != g.NumNodes() || resp.Stats.Edges != g.NumEdges() {
		return fmt.Errorf("upload %s: reply %+v, want %d nodes %d edges at generation 1", o.graph, resp, g.NumNodes(), g.NumEdges())
	}
	d.add(int64(g.NumNodes()), int64(g.NumEdges()))
	return nil
}

func (m *model) predict(o *op, r *reply, sp *spans, d *digest) error {
	mg := m.graphs[o.graph]
	key := mg.key()
	ans, ok := m.hep[key]
	if !ok {
		gen := mg.vg.Pin()
		p, err := hged.NewPredictor(gen.Graph(), hged.PredictOptions{Lambda: hepLambda, Tau: hepTau, Parallelism: hepParallel})
		if err != nil {
			gen.Unpin()
			return fmt.Errorf("facade predictor: %w", err)
		}
		ans = hepAnswer{preds: p.Run(), stats: p.Stats()}
		gen.Unpin()
		for k := range m.hep {
			if strings.HasPrefix(k, o.graph+"@") {
				delete(m.hep, k) // an older generation: no later job asks for it
			}
		}
		m.hep[key] = ans
	}
	sp.hep = &ans.stats
	if r.job == nil {
		return fmt.Errorf("predict %s: status %d: %s", o.graph, r.status, bytes.TrimSpace(r.body))
	}
	v := r.job
	if v.State != server.JobDone {
		return fmt.Errorf("predict %s: job %s ended %s: %s", o.graph, v.ID, v.State, v.Error)
	}
	if v.StartedAt != nil && v.FinishedAt != nil {
		sp.jobWait, sp.jobRun = v.StartedAt.Sub(v.CreatedAt), v.FinishedAt.Sub(*v.StartedAt)
	}
	// At parallelism 2 the σ memo's pair and expansion counts depend on
	// which worker asks for a pair first (a request at a larger budget
	// re-solves a pair cached at a smaller one), so only the seeds and
	// components are compared; the predictions must match exactly.
	st := v.Stats
	if st == nil || st.Seeds != ans.stats.Seeds || st.Components != ans.stats.Components {
		return fmt.Errorf("predict %s: job stats %+v, facade %+v", o.graph, st, ans.stats)
	}
	if len(v.Predictions) != len(ans.preds) {
		return fmt.Errorf("predict %s: %d predictions, facade %d", o.graph, len(v.Predictions), len(ans.preds))
	}
	for i, p := range ans.preds {
		got := v.Predictions[i]
		if got.Seed != p.Seed || !slices.Equal(got.Nodes, p.Nodes) {
			return fmt.Errorf("predict %s: prediction %d is %v (seed %d), facade %v (seed %d)", o.graph, i, got.Nodes, got.Seed, p.Nodes, p.Seed)
		}
		d.add(int64(p.Seed), int64(len(p.Nodes)))
	}
	d.add(int64(st.Seeds), int64(st.Components), int64(len(v.Predictions)))
	return nil
}

// witnessed reports whether the node correspondence of the facade's
// optimal mapping mp is an isomorphism from got — ego(u) after the edit
// path p — to ev. Path.Apply numbers the surviving node slots in ascending
// order, and mp maps each slot to its node of ev. Checking a given
// bijection is linear, while hged.Isomorphic's backtracking search runs for
// seconds on some ego networks of the replicas.
func witnessed(got, ev *hged.Hypergraph, p *hged.Path, srcN int, mp hged.Mapping) bool {
	if got.NumNodes() != ev.NumNodes() || got.NumEdges() != ev.NumEdges() {
		return false
	}
	alive := make([]bool, len(mp.NodeMap))
	for i := 0; i < srcN && i < len(alive); i++ {
		alive[i] = true
	}
	for _, o := range p.Ops {
		if o.Node >= len(alive) {
			return false
		}
		switch o.Kind {
		case hged.OpNodeInsert:
			alive[o.Node] = true
		case hged.OpNodeDelete:
			alive[o.Node] = false
		}
	}
	f := make([]hged.NodeID, 0, got.NumNodes())
	for slot, ok := range alive {
		if ok {
			f = append(f, hged.NodeID(mp.NodeMap[slot]))
		}
	}
	if len(f) != got.NumNodes() {
		return false
	}
	for k, v := range f {
		if int(v) >= ev.NumNodes() || got.NodeLabel(hged.NodeID(k)) != ev.NodeLabel(v) {
			return false
		}
	}
	keys := func(h *hged.Hypergraph, f []hged.NodeID) []string {
		out := make([]string, h.NumEdges())
		for i, e := range h.Edges() {
			nodes := make([]int, len(e.Nodes))
			for j, v := range e.Nodes {
				if f != nil {
					v = f[v]
				}
				nodes[j] = int(v)
			}
			sort.Ints(nodes)
			out[i] = fmt.Sprint(e.Label, nodes)
		}
		sort.Strings(out)
		return out
	}
	kg, kv := keys(got, f), keys(ev, nil)
	for i := range kg {
		if kg[i] != kv[i] {
			return false
		}
	}
	return true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// digest is an FNV-1a hash over every checked answer, so two runs that
// agree on it got the same answers in the same order.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: fnv.New64a().Sum64()} }

func (d *digest) add(vs ...int64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.h ^= uint64(byte(v >> (8 * i)))
			d.h *= 1099511628211
		}
	}
}

func (d *digest) addString(s string) {
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
	d.add(int64(len(s)))
}
