package server

import (
	"maps"
	"slices"
	"sync"
	"time"

	"hged"
	"hged/internal/core"
)

// latencyBounds are the histogram bucket upper bounds in milliseconds; the
// final implicit bucket is +Inf.
var latencyBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	Counts []int64 `json:"counts"` // len(latencyBounds)+1, last is +Inf
	SumMS  float64 `json:"sumMs"`
	Count  int64   `json:"count"`
}

func newHistogram() *histogram {
	return &histogram{Counts: make([]int64, len(latencyBounds)+1)}
}

func (h *histogram) clone() *histogram {
	return &histogram{Counts: slices.Clone(h.Counts), SumMS: h.SumMS, Count: h.Count}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBounds) && ms > latencyBounds[i] {
		i++
	}
	h.Counts[i]++
	h.SumMS += ms
	h.Count++
}

// endpointMetrics aggregates one route's traffic.
type endpointMetrics struct {
	Status  map[int]int64 `json:"status"`
	Latency *histogram    `json:"latency"`
}

// Metrics collects the server's expvar-style counters: requests by
// endpoint and status, latency histograms, HGED solver expansions, σ-cache
// activity, search, corpus cold-start, MVCC churn and job lifecycle
// counts. Each counter is stored in its /metrics field. All methods are
// safe for concurrent use.
type Metrics struct {
	mu sync.Mutex
	// c holds the stored counters; the gauges and the live σ-cache share
	// are added by snapshot.
	c MetricsSnapshot
}

func newMetrics() *Metrics {
	m := &Metrics{}
	m.c.Requests = make(map[string]*endpointMetrics)
	m.c.Search.Latency = newHistogram()
	m.c.Snapshot.Source = "none"
	return m
}

func (m *Metrics) observe(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.c.Requests[endpoint]
	if !ok {
		em = &endpointMetrics{Status: make(map[int]int64), Latency: newHistogram()}
		m.c.Requests[endpoint] = em
	}
	em.Status[status]++
	em.Latency.observe(d)
}

func (m *Metrics) addExpansions(n int64) {
	m.mu.Lock()
	m.c.HGED.Expansions += n
	m.mu.Unlock()
}

func (m *Metrics) jobSubmitted() {
	m.mu.Lock()
	m.c.Jobs.Submitted++
	m.mu.Unlock()
}

func (m *Metrics) jobFinished(state JobState, st hged.PredictStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch state {
	case JobDone:
		m.c.Jobs.Done++
	case JobFailed:
		m.c.Jobs.Failed++
	case JobCancelled:
		m.c.Jobs.Cancelled++
	}
	m.c.SigmaCache.add(st)
}

// searchDone accumulates one completed similarity search: its mode, filter
// statistics (per-filter prune counters) and end-to-end latency.
func (m *Metrics) searchDone(knn bool, st hged.FilterStats, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &m.c.Search
	if knn {
		s.KNN++
	} else {
		s.Range++
	}
	s.Candidates += int64(st.Candidates)
	s.PrunedByCount += int64(st.PrunedByCount)
	s.PrunedByLabel += int64(st.PrunedByLabel)
	s.PrunedByCard += int64(st.PrunedByCard)
	s.PrunedByBound += int64(st.PrunedByBound)
	s.Verified += int64(st.Verified)
	s.VerifiedWithin += int64(st.VerifiedWithin)
	s.Latency.observe(d)
}

// mutationDone accumulates one committed mutation batch's delta.
func (m *Metrics) mutationDone(d hged.GraphDelta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := &m.c.Versions
	v.MutationBatches++
	v.NodesAdded += int64(d.NodesAdded)
	v.NodesRemoved += int64(d.NodesRemoved)
	v.EdgesAdded += int64(d.EdgesAdded)
	v.EdgesRemoved += int64(d.EdgesRemoved)
	v.Relabeled += int64(d.Relabeled)
	if d.Full {
		v.FullInvalidations++
	}
}

// graphDeleted records one registry removal and keeps the removed entry's
// σ-cache work in the stored counters, so the sigmaCache section does not
// drop when the entry leaves the live sum.
func (m *Metrics) graphDeleted(e *GraphEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.Versions.GraphsDeleted++
	e.addSigmaStats(&m.c.SigmaCache)
}

// snapshotLoaded records how the serving corpus was cold-started: restored
// from a .hgx snapshot ("hgx") or rebuilt from source files ("rebuilt"),
// with the time it took, the snapshot's on-disk size (0 when rebuilt
// without persisting), and the corpus size.
func (m *Metrics) snapshotLoaded(source string, d time.Duration, bytes int64, graphs int) {
	m.mu.Lock()
	m.c.Snapshot.Source = source
	m.c.Snapshot.LoadNs = d.Nanoseconds()
	m.c.Snapshot.Bytes = bytes
	m.c.Snapshot.Graphs = graphs
	m.mu.Unlock()
}

// sigmaCounters is the /metrics sigmaCache section: σ-cache work summed
// over finished jobs, deleted graphs and every live per-graph predictor.
type sigmaCounters struct {
	Computed int64 `json:"computed"`
	Hits     int64 `json:"hits"`
	Deduped  int64 `json:"deduped"`
	Expanded int64 `json:"expanded"`
}

func (c *sigmaCounters) add(st hged.PredictStats) {
	c.Computed += int64(st.PairsComputed)
	c.Hits += int64(st.PairsCached)
	c.Deduped += int64(st.PairsDeduped)
	c.Expanded += st.Expanded
}

// MetricsSnapshot is the JSON shape served by GET /metrics. Metrics stores
// its counters in one, so this struct is the only declaration of each.
type MetricsSnapshot struct {
	// Requests maps "METHOD /pattern" to per-status counts and latency.
	Requests map[string]*endpointMetrics `json:"requests"`
	// HGED aggregates solver effort from synchronous distance queries.
	HGED struct {
		Expansions int64 `json:"expansions"`
	} `json:"hged"`
	// SigmaCache sums the σ-cache counters of every live per-graph
	// predictor (sigma endpoint), of deleted graphs' predictors and of all
	// finished jobs.
	SigmaCache sigmaCounters `json:"sigmaCache"`
	// Jobs counts job lifecycle events; Queued and Running are gauges.
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Cancelled int64 `json:"cancelled"`
		Queued    int   `json:"queued"`
		Running   int   `json:"running"`
	} `json:"jobs"`
	// Search aggregates completed /v1/search queries: how many of each
	// mode ran, how candidates were eliminated (summed FilterStats — the
	// prune counters partition candidates), and the end-to-end latency.
	Search struct {
		Range          int64      `json:"range"`
		KNN            int64      `json:"knn"`
		Candidates     int64      `json:"candidates"`
		PrunedByCount  int64      `json:"prunedByCount"`
		PrunedByLabel  int64      `json:"prunedByLabel"`
		PrunedByCard   int64      `json:"prunedByCard"`
		PrunedByBound  int64      `json:"prunedByBound"`
		Verified       int64      `json:"verified"`
		VerifiedWithin int64      `json:"verifiedWithin"`
		Latency        *histogram `json:"latency"`
	} `json:"search"`
	// Snapshot reports corpus cold-start provenance: whether the serving
	// corpus was restored from a .hgx snapshot ("hgx"), rebuilt from
	// source files ("rebuilt"), or neither yet ("none"), how long the
	// restore or rebuild took, and the snapshot's on-disk size.
	Snapshot struct {
		Source string `json:"source"`
		LoadNs int64  `json:"loadNs"`
		Bytes  int64  `json:"bytes"`
		Graphs int    `json:"graphs"`
	} `json:"snapshot"`
	// SolverPool reports the process-wide pooled-solver reuse rate: hits
	// are core.Within calls served by a warm solver, misses allocated
	// fresh.
	SolverPool struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"solverPool"`
	// Versions reports MVCC churn: generations published across all loaded
	// graphs (gauge, summed from the registry), currently pinned readers
	// (gauge), committed mutation batches and their op totals, and
	// deletions.
	Versions struct {
		GenerationsPublished int64 `json:"generationsPublished"`
		PinnedReaders        int64 `json:"pinnedReaders"`
		MutationBatches      int64 `json:"mutationBatches"`
		NodesAdded           int64 `json:"nodesAdded"`
		NodesRemoved         int64 `json:"nodesRemoved"`
		EdgesAdded           int64 `json:"edgesAdded"`
		EdgesRemoved         int64 `json:"edgesRemoved"`
		Relabeled            int64 `json:"relabeled"`
		FullInvalidations    int64 `json:"fullInvalidations"`
		GraphsDeleted        int64 `json:"graphsDeleted"`
	} `json:"versions"`
}

// snapshot copies the stored counters and adds the registry's live σ
// caches and version gauges and the job manager's queue gauges. The maps
// and histograms are deep-copied so the caller can marshal without racing
// further updates.
func (m *Metrics) snapshot(reg *Registry, jobs *JobManager) MetricsSnapshot {
	m.mu.Lock()
	snap := m.c
	snap.Requests = make(map[string]*endpointMetrics, len(m.c.Requests))
	//hgedvet:ignore detrange deep copy into another keyed map; iteration order cannot affect it
	for k, em := range m.c.Requests {
		snap.Requests[k] = &endpointMetrics{Status: maps.Clone(em.Status), Latency: em.Latency.clone()}
	}
	snap.Search.Latency = m.c.Search.Latency.clone()
	m.mu.Unlock()

	for _, e := range reg.corpus.Load().entries {
		e.addSigmaStats(&snap.SigmaCache)
		snap.Versions.GenerationsPublished += e.vg.Published()
		snap.Versions.PinnedReaders += e.vg.PinnedReaders()
	}
	snap.Jobs.Queued, snap.Jobs.Running = jobs.gauges()
	snap.SolverPool.Hits, snap.SolverPool.Misses = core.PoolStats()
	return snap
}
