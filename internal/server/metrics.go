package server

import (
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
// activity, and job lifecycle counts. All methods are safe for concurrent
// use.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics

	expansions int64 // solver expansions from synchronous distance queries

	// job-side totals, accumulated when jobs finish
	jobsSubmitted int64
	jobsDone      int64
	jobsFailed    int64
	jobsCancelled int64
	jobComputed   int64
	jobHits       int64
	jobDeduped    int64
	jobExpanded   int64

	// search-side totals, accumulated per completed /v1/search query
	// (cancelled scans only show in the request counters)
	searchRange   int64
	searchKNN     int64
	searchFilter  hged.FilterStats
	searchLatency *histogram

	// corpus cold-start provenance: how the serving corpus came to be
	// ("hgx" restored from a snapshot, "rebuilt" built from source files,
	// "none" before either), how long that took, and the snapshot size.
	snapSource string
	snapLoadNs int64
	snapBytes  int64
	snapGraphs int

	// MVCC version-churn totals: committed mutation batches and what they
	// changed, and graph deletions.
	mutationBatches int64
	nodesAdded      int64
	nodesRemoved    int64
	edgesAdded      int64
	edgesRemoved    int64
	relabeled       int64
	fullDeltas      int64
	graphsDeleted   int64
}

func newMetrics() *Metrics {
	return &Metrics{
		endpoints:     make(map[string]*endpointMetrics),
		searchLatency: newHistogram(),
		snapSource:    "none",
	}
}

func (m *Metrics) observe(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.endpoints[endpoint]
	if !ok {
		em = &endpointMetrics{Status: make(map[int]int64), Latency: newHistogram()}
		m.endpoints[endpoint] = em
	}
	em.Status[status]++
	em.Latency.observe(d)
}

func (m *Metrics) addExpansions(n int64) {
	m.mu.Lock()
	m.expansions += n
	m.mu.Unlock()
}

func (m *Metrics) jobSubmitted() {
	m.mu.Lock()
	m.jobsSubmitted++
	m.mu.Unlock()
}

func (m *Metrics) jobFinished(state JobState, st hged.PredictStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch state {
	case JobDone:
		m.jobsDone++
	case JobFailed:
		m.jobsFailed++
	case JobCancelled:
		m.jobsCancelled++
	}
	m.jobComputed += int64(st.PairsComputed)
	m.jobHits += int64(st.PairsCached)
	m.jobDeduped += int64(st.PairsDeduped)
	m.jobExpanded += int64(st.Expanded)
}

// searchDone accumulates one completed similarity search: its mode, filter
// statistics (per-filter prune counters) and end-to-end latency.
func (m *Metrics) searchDone(knn bool, st hged.FilterStats, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if knn {
		m.searchKNN++
	} else {
		m.searchRange++
	}
	m.searchFilter.Candidates += st.Candidates
	m.searchFilter.PrunedByCount += st.PrunedByCount
	m.searchFilter.PrunedByLabel += st.PrunedByLabel
	m.searchFilter.PrunedByCard += st.PrunedByCard
	m.searchFilter.PrunedByBound += st.PrunedByBound
	m.searchFilter.Verified += st.Verified
	m.searchFilter.VerifiedWithin += st.VerifiedWithin
	m.searchLatency.observe(d)
}

// mutationDone accumulates one committed mutation batch's delta.
func (m *Metrics) mutationDone(d hged.GraphDelta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mutationBatches++
	m.nodesAdded += int64(d.NodesAdded)
	m.nodesRemoved += int64(d.NodesRemoved)
	m.edgesAdded += int64(d.EdgesAdded)
	m.edgesRemoved += int64(d.EdgesRemoved)
	m.relabeled += int64(d.Relabeled)
	if d.Full {
		m.fullDeltas++
	}
}

// graphDeleted records one registry removal.
func (m *Metrics) graphDeleted() {
	m.mu.Lock()
	m.graphsDeleted++
	m.mu.Unlock()
}

// snapshotLoaded records how the serving corpus was cold-started: restored
// from a .hgx snapshot ("hgx") or rebuilt from source files ("rebuilt"),
// with the time it took, the snapshot's on-disk size (0 when rebuilt
// without persisting), and the corpus size.
func (m *Metrics) snapshotLoaded(source string, d time.Duration, bytes int64, graphs int) {
	m.mu.Lock()
	m.snapSource = source
	m.snapLoadNs = d.Nanoseconds()
	m.snapBytes = bytes
	m.snapGraphs = graphs
	m.mu.Unlock()
}

// MetricsSnapshot is the JSON shape served by GET /metrics.
type MetricsSnapshot struct {
	// Requests maps "METHOD /pattern" to per-status counts and latency.
	Requests map[string]*endpointMetrics `json:"requests"`
	// HGED aggregates solver effort from synchronous distance queries.
	HGED struct {
		Expansions int64 `json:"expansions"`
	} `json:"hged"`
	// SigmaCache sums the σ-cache counters of every live per-graph
	// predictor (sigma endpoint) plus all finished jobs.
	SigmaCache struct {
		Computed int64 `json:"computed"`
		Hits     int64 `json:"hits"`
		Deduped  int64 `json:"deduped"`
		Expanded int64 `json:"expanded"`
	} `json:"sigmaCache"`
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
	// are acquisitions served by a warm Solver, misses allocated fresh.
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

// snapshot merges the counter state with the registry's live σ caches and
// the job manager's queue gauges. Maps are deep-copied so the caller can
// marshal without racing further updates.
func (m *Metrics) snapshot(reg *Registry, jobs *JobManager) MetricsSnapshot {
	snap := MetricsSnapshot{Requests: make(map[string]*endpointMetrics)}

	m.mu.Lock()
	//hgedvet:ignore detrange deep copy into another keyed map; iteration order cannot affect it
	for k, em := range m.endpoints {
		cp := &endpointMetrics{Status: make(map[int]int64, len(em.Status)), Latency: newHistogram()}
		//hgedvet:ignore detrange deep copy into another keyed map; iteration order cannot affect it
		for s, c := range em.Status {
			cp.Status[s] = c
		}
		copy(cp.Latency.Counts, em.Latency.Counts)
		cp.Latency.SumMS, cp.Latency.Count = em.Latency.SumMS, em.Latency.Count
		snap.Requests[k] = cp
	}
	snap.HGED.Expansions = m.expansions
	snap.SigmaCache.Computed = m.jobComputed
	snap.SigmaCache.Hits = m.jobHits
	snap.SigmaCache.Deduped = m.jobDeduped
	snap.SigmaCache.Expanded = m.jobExpanded
	snap.Jobs.Submitted = m.jobsSubmitted
	snap.Jobs.Done = m.jobsDone
	snap.Jobs.Failed = m.jobsFailed
	snap.Jobs.Cancelled = m.jobsCancelled
	snap.Search.Range = m.searchRange
	snap.Search.KNN = m.searchKNN
	snap.Search.Candidates = int64(m.searchFilter.Candidates)
	snap.Search.PrunedByCount = int64(m.searchFilter.PrunedByCount)
	snap.Search.PrunedByLabel = int64(m.searchFilter.PrunedByLabel)
	snap.Search.PrunedByCard = int64(m.searchFilter.PrunedByCard)
	snap.Search.PrunedByBound = int64(m.searchFilter.PrunedByBound)
	snap.Search.Verified = int64(m.searchFilter.Verified)
	snap.Search.VerifiedWithin = int64(m.searchFilter.VerifiedWithin)
	snap.Search.Latency = newHistogram()
	copy(snap.Search.Latency.Counts, m.searchLatency.Counts)
	snap.Search.Latency.SumMS, snap.Search.Latency.Count = m.searchLatency.SumMS, m.searchLatency.Count
	snap.Snapshot.Source = m.snapSource
	snap.Snapshot.LoadNs = m.snapLoadNs
	snap.Snapshot.Bytes = m.snapBytes
	snap.Snapshot.Graphs = m.snapGraphs
	snap.Versions.MutationBatches = m.mutationBatches
	snap.Versions.NodesAdded = m.nodesAdded
	snap.Versions.NodesRemoved = m.nodesRemoved
	snap.Versions.EdgesAdded = m.edgesAdded
	snap.Versions.EdgesRemoved = m.edgesRemoved
	snap.Versions.Relabeled = m.relabeled
	snap.Versions.FullInvalidations = m.fullDeltas
	snap.Versions.GraphsDeleted = m.graphsDeleted
	m.mu.Unlock()

	if reg != nil {
		live := reg.cacheTotals()
		snap.SigmaCache.Computed += int64(live.PairsComputed)
		snap.SigmaCache.Hits += int64(live.PairsCached)
		snap.SigmaCache.Deduped += int64(live.PairsDeduped)
		snap.SigmaCache.Expanded += int64(live.Expanded)
		for _, e := range reg.List() {
			vg := e.Versions()
			snap.Versions.GenerationsPublished += vg.Published()
			snap.Versions.PinnedReaders += vg.PinnedReaders()
		}
	}
	if jobs != nil {
		snap.Jobs.Queued, snap.Jobs.Running = jobs.gauges()
	}
	snap.SolverPool.Hits, snap.SolverPool.Misses = core.SolverPoolStats()
	return snap
}
