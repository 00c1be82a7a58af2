package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"hged"
)

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeJSON decodes the request body into v with a size cap and strict
// field checking, replying 400 itself on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// graphOr404 resolves the {name} path value, replying 404 when unknown.
func (s *Server) graphOr404(w http.ResponseWriter, r *http.Request) (*GraphEntry, bool) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
	}
	return e, ok
}

// maxSyncExpansions caps the per-request HGED expansion budget of
// synchronous queries; requests may ask for less, never more.
const maxSyncExpansions = 2_000_000

// capExpansions clamps a client-requested expansion budget to
// maxSyncExpansions (0 selects the cap itself).
func capExpansions(req int64) int64 {
	if req <= 0 || req > maxSyncExpansions {
		return maxSyncExpansions
	}
	return req
}

// --- graphs ---

type graphSummary struct {
	Name       string `json:"name"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Generation int64  `json:"generation"`
	Source     string `json:"source"`
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	out := make([]graphSummary, len(entries))
	for i, e := range entries {
		st := e.Stats()
		out[i] = graphSummary{Name: e.Name, Nodes: st.Nodes, Edges: st.Edges, Generation: e.Generation(), Source: e.Source}
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

type uploadRequest struct {
	Name   string `json:"name"`
	Format string `json:"format"` // hg | json | benson
	Data   string `json:"data"`
	// Benson-format uploads carry the three streams separately.
	Nverts    string `json:"nverts,omitempty"`
	Simplices string `json:"simplices,omitempty"`
	Labels    string `json:"labels,omitempty"`
}

func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request) {
	var req uploadRequest
	if !decodeJSON(w, r, s.cfg.MaxUploadBytes, &req) {
		return
	}
	var (
		g   *hged.Hypergraph
		err error
	)
	switch strings.ToLower(req.Format) {
	case "hg", "":
		g, err = hged.ReadHG(strings.NewReader(req.Data))
	case "json":
		g, err = hged.ReadJSON(strings.NewReader(req.Data))
	case "benson":
		var labels io.Reader
		if req.Labels != "" {
			labels = strings.NewReader(req.Labels)
		}
		g, err = hged.ReadBenson(strings.NewReader(req.Nverts), strings.NewReader(req.Simplices), labels)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want hg, json or benson)", req.Format)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse graph: %v", err)
		return
	}
	entry, err := s.reg.Add(req.Name, g, "upload")
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already loaded") {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": entry.Name, "generation": entry.Generation(), "stats": entry.Stats()})
}

func (s *Server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	e, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name": e.Name, "source": e.Source, "generation": e.Generation(), "stats": e.Stats(),
	})
}

// --- mutation ---

type mutateNode struct {
	Label int `json:"label"`
}

type mutateEdge struct {
	Label int   `json:"label"`
	Nodes []int `json:"nodes"`
}

type mutateRequest struct {
	AddNodes    []mutateNode `json:"addNodes,omitempty"`
	AddEdges    []mutateEdge `json:"addEdges,omitempty"`
	RemoveEdges []int        `json:"removeEdges,omitempty"`
}

// maxMutationOps caps the operations one batch may carry.
const maxMutationOps = 100_000

// handleMutateGraph applies one copy-on-write mutation batch to a loaded
// graph: node additions, then hyperedge additions (which may reference the
// nodes just added), then hyperedge removals (ids in post-addition
// numbering, descending application so each id means what the client saw).
// Readers keep their pinned generation; on success the new generation is
// published atomically and derived caches are invalidated incrementally.
func (s *Server) handleMutateGraph(w http.ResponseWriter, r *http.Request) {
	e, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	var req mutateRequest
	if !decodeJSON(w, r, s.cfg.MaxUploadBytes, &req) {
		return
	}
	ops := len(req.AddNodes) + len(req.AddEdges) + len(req.RemoveEdges)
	if ops == 0 {
		writeError(w, http.StatusBadRequest, "empty mutation: need addNodes, addEdges or removeEdges")
		return
	}
	if ops > maxMutationOps {
		writeError(w, http.StatusBadRequest, "too many operations (%d > %d)", ops, maxMutationOps)
		return
	}
	var nodeIDs, edgeIDs []int
	gen, st, delta, err := e.Mutate(func(b *hged.GraphBatch) error {
		for _, n := range req.AddNodes {
			nodeIDs = append(nodeIDs, int(b.AddNode(hged.Label(n.Label))))
		}
		for i, spec := range req.AddEdges {
			n := b.Graph().NumNodes()
			if len(spec.Nodes) == 0 {
				return fmt.Errorf("addEdges[%d]: empty member set", i)
			}
			members := make([]hged.NodeID, len(spec.Nodes))
			for j, v := range spec.Nodes {
				if v < 0 || v >= n {
					return fmt.Errorf("addEdges[%d]: node %d out of range [0, %d)", i, v, n)
				}
				members[j] = hged.NodeID(v)
			}
			edgeIDs = append(edgeIDs, int(b.AddEdge(hged.Label(spec.Label), members...)))
		}
		// Descending order keeps every remaining id meaning what the client
		// saw when it composed the request.
		removals := append([]int(nil), req.RemoveEdges...)
		sort.Sort(sort.Reverse(sort.IntSlice(removals)))
		for i, id := range removals {
			m := b.Graph().NumEdges()
			if id < 0 || id >= m {
				return fmt.Errorf("removeEdges[%d]: hyperedge %d out of range [0, %d)", i, id, m)
			}
			if i > 0 && id == removals[i-1] {
				return fmt.Errorf("removeEdges: duplicate hyperedge id %d", id)
			}
			b.RemoveEdge(hged.EdgeID(id))
		}
		return nil
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.mutationDone(delta)
	writeJSON(w, http.StatusOK, map[string]any{
		"name":         e.Name,
		"generation":   gen,
		"addedNodes":   nodeIDs,
		"addedEdges":   edgeIDs,
		"removedEdges": len(req.RemoveEdges),
		"stats":        st,
	})
}

// handleRemoveEdge removes one hyperedge by id, publishing a new generation.
func (s *Server) handleRemoveEdge(w http.ResponseWriter, r *http.Request) {
	e, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad hyperedge id %q", r.PathValue("id"))
		return
	}
	gen, st, delta, err := e.Mutate(func(b *hged.GraphBatch) error {
		if m := b.Graph().NumEdges(); id < 0 || id >= m {
			return fmt.Errorf("hyperedge %d out of range [0, %d)", id, m)
		}
		b.RemoveEdge(hged.EdgeID(id))
		return nil
	})
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.metrics.mutationDone(delta)
	writeJSON(w, http.StatusOK, map[string]any{"name": e.Name, "generation": gen, "stats": st})
}

// handleDeleteGraph unloads a graph. Pinned readers and in-flight requests
// against its generations finish undisturbed; the registry drops the
// graph's search-index row in the same write, so no later search sees it.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e := s.reg.Remove(name)
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	s.metrics.graphDeleted(e)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// --- distance ---

type distanceRequest struct {
	U             int             `json:"u"`
	V             int             `json:"v"`
	Tau           int             `json:"tau"`           // > 0 enables threshold verification
	Solver        string          `json:"solver"`        // bfs | dfs | heu
	Explain       bool            `json:"explain"`       // include the edit-path explanation
	MaxExpansions int64           `json:"maxExpansions"` // clamped to the server cap
	Costs         *hged.CostModel `json:"costs"`         // keys node, edge, incidence, nodeRelabel, edgeRelabel
}

type distanceResponse struct {
	U           int             `json:"u"`
	V           int             `json:"v"`
	Distance    int             `json:"distance"`
	Within      *bool           `json:"within,omitempty"` // present when tau > 0
	Exact       bool            `json:"exact"`
	Exceeded    bool            `json:"exceeded"`
	Expanded    int64           `json:"expanded"`
	Explanation []string        `json:"explanation,omitempty"`
	Ops         json.RawMessage `json:"ops,omitempty"`
}

// handleDistance computes the node-similar distance σ(u, v) — the HGED
// between the two nodes' ego networks (Problem 1) — with the solver,
// threshold and cost model chosen per request, optionally explained by an
// optimal edit path.
func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	e, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	var req distanceRequest
	if !decodeJSON(w, r, 1<<20, &req) {
		return
	}
	// Pin one generation so the range check and both ego extractions see
	// the same graph even while mutation batches publish.
	gen := e.Pin()
	defer gen.Unpin()
	g := gen.Graph()
	n := g.NumNodes()
	if req.U < 0 || req.U >= n || req.V < 0 || req.V >= n {
		writeError(w, http.StatusBadRequest, "node pair (%d, %d) out of range [0, %d)", req.U, req.V, n)
		return
	}
	if req.Tau < 0 {
		writeError(w, http.StatusBadRequest, "tau = %d, must be ≥ 0", req.Tau)
		return
	}
	if req.Costs != nil {
		if err := req.Costs.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	alg, err := hged.ParseAlgorithm(req.Solver)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := hged.Options{Threshold: req.Tau, MaxExpansions: capExpansions(req.MaxExpansions), Costs: req.Costs}
	eu, ev := g.Ego(hged.NodeID(req.U)), g.Ego(hged.NodeID(req.V))
	res, within := alg.Within(eu, ev, opts.Tau(), opts)
	s.metrics.addExpansions(res.Expanded)

	resp := distanceResponse{
		U: req.U, V: req.V,
		Distance: res.Distance,
		Exact:    res.Exact,
		Exceeded: res.Exceeded,
		Expanded: res.Expanded,
	}
	if req.Tau > 0 {
		resp.Within = &within
	}
	if req.Explain && res.Path != nil {
		resp.Explanation = hged.Explain(res.Path, hged.EgoNamer(eu))
		var buf bytes.Buffer
		if err := hged.WritePathJSON(&buf, res.Path); err == nil {
			resp.Ops = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- sigma ---

type sigmaRequest struct {
	Pairs         [][2]int `json:"pairs"`
	Budget        int      `json:"budget"` // defaults to 15 (λ=3 · τ=5)
	Solver        string   `json:"solver"`
	MaxExpansions int64    `json:"maxExpansions"`
}

type sigmaResult struct {
	U        int  `json:"u"`
	V        int  `json:"v"`
	Distance int  `json:"distance"`
	Within   bool `json:"within"`
}

// handleSigma answers batched σ(u, v) queries through the graph's
// persistent memoizing predictor: repeated and concurrent queries share
// one on-demand HGED cache.
func (s *Server) handleSigma(w http.ResponseWriter, r *http.Request) {
	e, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	var req sigmaRequest
	if !decodeJSON(w, r, 1<<20, &req) {
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, "pairs must not be empty")
		return
	}
	if len(req.Pairs) > 10_000 {
		writeError(w, http.StatusBadRequest, "too many pairs (%d > 10000)", len(req.Pairs))
		return
	}
	if req.Budget == 0 {
		req.Budget = 15
	}
	if req.Budget < 0 {
		writeError(w, http.StatusBadRequest, "budget = %d, must be > 0", req.Budget)
		return
	}
	alg, err := hged.ParseAlgorithm(req.Solver)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The predictor comes back with the graph of the generation it serves;
	// validating ids against that same graph keeps the check and the σ
	// queries consistent under concurrent mutation.
	pred, g, err := e.sigmaPredictor(alg, capExpansions(req.MaxExpansions))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	n := g.NumNodes()
	for _, p := range req.Pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			writeError(w, http.StatusBadRequest, "node pair (%d, %d) out of range [0, %d)", p[0], p[1], n)
			return
		}
	}
	results := make([]sigmaResult, len(req.Pairs))
	for i, p := range req.Pairs {
		d, within := pred.Sigma(hged.NodeID(p[0]), hged.NodeID(p[1]), req.Budget)
		results[i] = sigmaResult{U: p[0], V: p[1], Distance: d, Within: within}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"results": results,
		"cache":   pred.Stats(), // cumulative for this graph's σ cache
	})
}

// --- search ---

type searchQuery struct {
	Name   string `json:"name,omitempty"` // a loaded graph...
	Format string `json:"format,omitempty"`
	Data   string `json:"data,omitempty"` // ...or an inline one
}

// maxParallelism caps the per-request worker count of /search
// verification and /predict seed processing.
const maxParallelism = 32

// capParallelism checks a client-requested worker count: a negative one is
// an error, one above maxParallelism is clamped to it.
func capParallelism(p int) (int, error) {
	if p < 0 {
		return 0, fmt.Errorf("parallelism = %d, must be ≥ 0", p)
	}
	return min(p, maxParallelism), nil
}

type searchRequest struct {
	Query         searchQuery `json:"query"`
	Tau           int         `json:"tau,omitempty"` // range search when > 0 or K == 0
	K             int         `json:"k,omitempty"`   // kNN when > 0
	MaxExpansions int64       `json:"maxExpansions"`
	// Parallelism fans verification out over this many workers
	// (clamped to maxParallelism); results are identical at every
	// setting. 0 or 1 verifies sequentially.
	Parallelism int `json:"parallelism"`
}

type searchMatch struct {
	Name     string `json:"name"`
	Distance int    `json:"distance"`
}

// handleSearch runs a range (τ) or kNN similarity search of the query
// graph against the corpus of all loaded graphs.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !decodeJSON(w, r, s.cfg.MaxUploadBytes, &req) {
		return
	}
	var q *hged.Hypergraph
	switch {
	case req.Query.Name != "":
		e, ok := s.reg.Get(req.Query.Name)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown query graph %q", req.Query.Name)
			return
		}
		q = e.Graph()
	case req.Query.Data != "":
		var err error
		switch strings.ToLower(req.Query.Format) {
		case "hg", "":
			q, err = hged.ReadHG(strings.NewReader(req.Query.Data))
		case "json":
			q, err = hged.ReadJSON(strings.NewReader(req.Query.Data))
		default:
			writeError(w, http.StatusBadRequest, "unknown query format %q", req.Query.Format)
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse query graph: %v", err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "query needs a graph name or inline data")
		return
	}
	parallelism, err := capParallelism(req.Parallelism)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The published corpus version already holds every write that
	// returned before this request; the pin keeps writes from reusing its
	// memory while the scan reads it. Shallow-copy its index so the
	// per-request expansion cap and worker count never race with
	// concurrent searches; the corpus slices are shared read-only.
	c := s.reg.pin()
	defer c.unpin()
	ix := *c.ix
	ix.MaxExpansions = capExpansions(req.MaxExpansions)
	ix.Parallelism = parallelism
	// The request context is cancelled by http.TimeoutHandler at the
	// response deadline and by client disconnects, so an abandoned scan
	// stops instead of running the corpus to completion.
	start := time.Now()
	var (
		matches []hged.SearchMatch
		stats   hged.FilterStats
	)
	if req.K > 0 {
		matches, stats, err = ix.NearestContext(r.Context(), q, req.K)
	} else {
		matches, stats, err = ix.SearchContext(r.Context(), q, req.Tau)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	s.metrics.searchDone(req.K > 0, stats, time.Since(start))
	out := make([]searchMatch, len(matches))
	for i, m := range matches {
		out[i] = searchMatch{Name: c.entries[m.ID].Name, Distance: m.Distance}
	}
	writeJSON(w, http.StatusOK, map[string]any{"matches": out, "stats": stats})
}

// --- jobs ---

type predictRequest struct {
	Lambda          int    `json:"lambda"`
	Tau             int    `json:"tau"`
	Algorithm       string `json:"algorithm"`
	Parallelism     int    `json:"parallelism"`
	MinSize         int    `json:"minSize"`
	MaxSize         int    `json:"maxSize"`
	MaxExpansions   int64  `json:"maxExpansions"`
	IncludeExisting bool   `json:"includeExisting"`
	TimeoutSeconds  int    `json:"timeoutSeconds"`
}

// handlePredict enqueues an asynchronous HEP prediction run and returns
// its job ID; poll GET /v1/jobs/{id} for progress and results.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	e, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	var req predictRequest
	if !decodeJSON(w, r, 1<<20, &req) {
		return
	}
	alg, err := hged.ParseAlgorithm(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	parallelism, err := capParallelism(req.Parallelism)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := hged.PredictOptions{
		Lambda:          req.Lambda,
		Tau:             req.Tau,
		Algorithm:       alg,
		Parallelism:     parallelism,
		MinSize:         req.MinSize,
		MaxSize:         req.MaxSize,
		MaxExpansions:   req.MaxExpansions,
		IncludeExisting: req.IncludeExisting,
	}
	if _, err := opts.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.TimeoutSeconds < 0 {
		writeError(w, http.StatusBadRequest, "timeoutSeconds must be ≥ 0")
		return
	}
	job, err := s.jobs.Submit(e.Name, opts, time.Duration(req.TimeoutSeconds)*time.Second)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": job.ID, "state": job.State()})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

// handleCancelJob requests cancellation; the job transitions to
// "cancelled" when the run observes it (at the next seed boundary).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, map[string]any{"id": job.ID, "state": job.State()})
}

// --- operational ---

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot(s.reg, s.jobs))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "graphs": s.reg.Len()})
}
