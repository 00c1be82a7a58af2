package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hged"
)

// JobState is the lifecycle phase of an asynchronous HEP prediction job.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Errors returned by Submit.
var (
	ErrQueueFull = errors.New("server: job queue full")
	ErrDraining  = errors.New("server: shutting down, not accepting jobs")
)

// Job is one asynchronous HEP prediction run. Mutable fields are guarded
// by mu; the done channel closes when the job reaches a terminal state.
type Job struct {
	ID      string
	Graph   string
	Options hged.PredictOptions
	Timeout time.Duration // max run time once started; 0 means none

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	state      JobState
	seedsDone  int
	seedsTotal int
	preds      predStore
	stats      hged.PredictStats
	errMsg     string
	created    time.Time
	started    time.Time
	finished   time.Time
}

// Cancel requests cancellation: queued jobs are skipped when a worker
// reaches them, running jobs stop at the next seed boundary.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// terminal reports whether the job has finished (done, failed or
// cancelled) and is therefore eligible for retention eviction.
func (j *Job) terminal() bool {
	switch j.State() {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}

// JobView is the JSON shape of a job's status.
type JobView struct {
	ID          string             `json:"id"`
	Graph       string             `json:"graph"`
	State       JobState           `json:"state"`
	Lambda      int                `json:"lambda"`
	Tau         int                `json:"tau"`
	Algorithm   string             `json:"algorithm"`
	Parallelism int                `json:"parallelism"`
	SeedsDone   int                `json:"seedsDone"`
	SeedsTotal  int                `json:"seedsTotal"`
	Predictions []PredictionView   `json:"predictions,omitempty"`
	Stats       *hged.PredictStats `json:"stats,omitempty"`
	Error       string             `json:"error,omitempty"`
	CreatedAt   time.Time          `json:"createdAt"`
	StartedAt   *time.Time         `json:"startedAt,omitempty"`
	FinishedAt  *time.Time         `json:"finishedAt,omitempty"`
}

// PredictionView is one predicted (λ,τ)-hyperedge on the wire.
type PredictionView struct {
	Nodes []hged.NodeID `json:"nodes"`
	Seed  hged.NodeID   `json:"seed"`
}

// predStore holds a finished job's predictions compactly: every node set
// back to back in one arena, prediction i spanning nodes[off[i]:off[i+1]]
// and grown from seeds[i]. A retained job costs three allocations instead
// of one per prediction.
type predStore struct {
	nodes []hged.NodeID
	off   []int32
	seeds []hged.NodeID
}

func packPredictions(preds []hged.Prediction) predStore {
	if len(preds) == 0 {
		return predStore{}
	}
	total := 0
	for _, p := range preds {
		total += len(p.Nodes)
	}
	s := predStore{
		nodes: make([]hged.NodeID, 0, total),
		off:   make([]int32, 1, len(preds)+1),
		seeds: make([]hged.NodeID, len(preds)),
	}
	for i, p := range preds {
		s.nodes = append(s.nodes, p.Nodes...)
		s.off = append(s.off, int32(len(s.nodes)))
		s.seeds[i] = p.Seed
	}
	return s
}

// views expands the store into wire shapes; node lists are capped
// subslices of the arena.
func (s predStore) views() []PredictionView {
	out := make([]PredictionView, len(s.seeds))
	for i := range out {
		a, b := s.off[i], s.off[i+1]
		out[i] = PredictionView{Nodes: s.nodes[a:b:b], Seed: s.seeds[i]}
	}
	return out
}

// View snapshots the job for serialization. Predictions and stats appear
// once the job is done.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Graph:       j.Graph,
		State:       j.state,
		Lambda:      j.Options.Lambda,
		Tau:         j.Options.Tau,
		Algorithm:   j.Options.Algorithm.String(),
		Parallelism: j.Options.Parallelism,
		SeedsDone:   j.seedsDone,
		SeedsTotal:  j.seedsTotal,
		Error:       j.errMsg,
		CreatedAt:   j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.state == JobDone || j.state == JobFailed || j.state == JobCancelled {
		st := j.stats
		v.Stats = &st
	}
	if j.state == JobDone {
		v.Predictions = j.preds.views()
	}
	return v
}

// JobManager runs HEP prediction jobs on a bounded worker pool with a
// bounded queue. Each job gets its own cancellable context derived from
// the manager's base context, so Close can drain or abort everything.
type JobManager struct {
	reg     *Registry
	metrics *Metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // retained job IDs in submission order
	retain int      // max terminal jobs kept for inspection
	nextID int
	closed bool
}

func newJobManager(reg *Registry, metrics *Metrics, workers, queueDepth, retain int) *JobManager {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 16
	}
	if retain < 1 {
		retain = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		reg:        reg,
		metrics:    metrics,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, queueDepth),
		jobs:       make(map[string]*Job),
		retain:     retain,
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit enqueues a HEP run against the named graph. It returns
// ErrQueueFull when the queue is at capacity and ErrDraining after Close.
func (m *JobManager) Submit(graph string, opts hged.PredictOptions, timeout time.Duration) (*Job, error) {
	if _, ok := m.reg.Get(graph); !ok {
		return nil, fmt.Errorf("server: unknown graph %q", graph)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrDraining
	}
	m.nextID++
	ctx, cancel := context.WithCancel(m.baseCtx)
	job := &Job{
		ID:      fmt.Sprintf("job-%d", m.nextID),
		Graph:   graph,
		Options: opts,
		Timeout: timeout,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   JobQueued,
		created: time.Now(),
	}
	select {
	case m.queue <- job:
	default:
		cancel()
		return nil, ErrQueueFull
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.evictLocked()
	m.metrics.jobSubmitted()
	return job, nil
}

// evictLocked enforces the retention policy: at most retain terminal jobs
// stay inspectable via Get/List, evicted oldest-first. Queued and running
// jobs are never evicted (they don't count against the limit). Caller
// holds m.mu.
func (m *JobManager) evictLocked() {
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id].terminal() {
			terminal++
		}
	}
	evict := terminal - m.retain
	if evict <= 0 {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		if evict > 0 && m.jobs[id].terminal() {
			delete(m.jobs, id)
			evict--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// Get returns a job by ID.
func (m *JobManager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all jobs sorted by ID (submission order).
func (m *JobManager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool {
		// job-N: compare numerically via length-then-lexicographic.
		a, b := out[i].ID, out[k].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// gauges reports how many jobs are currently queued and running.
func (m *JobManager) gauges() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	//hgedvet:ignore detrange order-insensitive count of job states
	for _, j := range m.jobs {
		switch j.State() {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
	}
	return queued, running
}

func (m *JobManager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

func (m *JobManager) runJob(job *Job) {
	defer close(job.done)
	ctx := job.ctx
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
	}

	finish := func(state JobState, stats hged.PredictStats, preds []hged.Prediction, errMsg string) {
		job.mu.Lock()
		job.state = state
		job.stats = stats
		job.preds = packPredictions(preds)
		job.errMsg = errMsg
		job.finished = time.Now()
		job.mu.Unlock()
		m.metrics.jobFinished(state, stats)
	}

	if err := ctx.Err(); err != nil { // cancelled (or timed out) while queued
		state, msg := classifyRunError(err, job.Timeout)
		finish(state, hged.PredictStats{}, nil, msg)
		return
	}
	entry, ok := m.reg.Get(job.Graph)
	if !ok {
		finish(JobFailed, hged.PredictStats{}, nil, fmt.Sprintf("graph %q disappeared", job.Graph))
		return
	}
	// Pin the generation for the whole run: a prediction reflects one
	// consistent graph version even while mutation batches publish.
	gen := entry.Pin()
	defer gen.Unpin()
	p, err := hged.NewPredictor(gen.Graph(), job.Options)
	if err != nil {
		finish(JobFailed, hged.PredictStats{}, nil, err.Error())
		return
	}
	job.mu.Lock()
	job.state = JobRunning
	job.started = time.Now()
	job.mu.Unlock()

	preds, err := p.RunContext(ctx, func(done, total int) {
		job.mu.Lock()
		job.seedsDone, job.seedsTotal = done, total
		job.mu.Unlock()
	})
	stats := p.Stats()
	if err != nil {
		state, msg := classifyRunError(err, job.Timeout)
		finish(state, stats, nil, msg)
		return
	}
	finish(JobDone, stats, preds, "")
}

// classifyRunError maps a RunContext error to the job's terminal state: an
// exceeded per-job deadline is a failure (the job never got cancelled, it
// ran out of its Timeout), an explicit cancellation is JobCancelled, and
// anything else is a plain failure.
func classifyRunError(err error, timeout time.Duration) (JobState, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return JobFailed, fmt.Sprintf("timed out after %s", timeout)
	case errors.Is(err, context.Canceled):
		return JobCancelled, err.Error()
	default:
		return JobFailed, err.Error()
	}
}

// Close stops accepting new jobs, waits for queued and running jobs to
// finish until ctx is done, then cancels whatever is still in flight and
// waits for the workers to exit. It is safe to call once.
func (m *JobManager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		// Drain deadline passed: abort the in-flight jobs and wait for
		// the workers to observe the cancellation.
		err = ctx.Err()
		m.baseCancel()
		<-drained
	}
	m.baseCancel()
	return err
}
