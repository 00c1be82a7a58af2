package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// predStore holds a finished job's predictions compactly in one byte
// string of varints. The server keeps up to JobRetention finished jobs,
// so this is most of what a retained job costs. Per prediction it holds a
// header, uvarint(count<<1 | general), then the members and the seed:
//   - a strictly ascending node set (every HEP prediction) has general
//     clear: its first member is a signed delta from the previous
//     prediction's first member (HEP's predictions are sorted, so this is
//     small), each further member the uvarint gap to the one before, less
//     one;
//   - any other node set has general set: each member a signed delta from
//     the one before, the first from 0;
//   - the seed is a signed delta from the first member (0 when empty).
type predStore struct {
	n, members int
	enc        []byte
}

func packPredictions(preds []hged.Prediction) predStore {
	if len(preds) == 0 {
		return predStore{}
	}
	s := predStore{n: len(preds)}
	var buf []byte
	prevFirst := int64(0)
	for _, p := range preds {
		general := !strictlyAscending(p.Nodes)
		hdr := uint64(len(p.Nodes)) << 1
		if general {
			hdr |= 1
		}
		buf = binary.AppendUvarint(buf, hdr)
		first := int64(0)
		if len(p.Nodes) > 0 {
			first = int64(p.Nodes[0])
		}
		switch {
		case general:
			prev := int64(0)
			for _, v := range p.Nodes {
				buf = binary.AppendVarint(buf, int64(v)-prev)
				prev = int64(v)
			}
		case len(p.Nodes) > 0:
			buf = binary.AppendVarint(buf, first-prevFirst)
			prevFirst = first
			for i := 1; i < len(p.Nodes); i++ {
				buf = binary.AppendUvarint(buf, uint64(int64(p.Nodes[i])-int64(p.Nodes[i-1])-1))
			}
		}
		buf = binary.AppendVarint(buf, int64(p.Seed)-first)
		s.members += len(p.Nodes)
	}
	s.enc = slices.Clone(buf)
	return s
}

func strictlyAscending(nodes []hged.NodeID) bool {
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			return false
		}
	}
	return true
}

// views expands the store into wire shapes; node lists are capped
// subslices of one arena.
func (s predStore) views() []PredictionView {
	out := make([]PredictionView, s.n)
	nodes := make([]hged.NodeID, 0, s.members)
	enc := s.enc
	signed := func() int64 {
		x, k := binary.Varint(enc)
		enc = enc[k:]
		return x
	}
	unsigned := func() uint64 {
		x, k := binary.Uvarint(enc)
		enc = enc[k:]
		return x
	}
	prevFirst := int64(0)
	for i := range out {
		hdr := unsigned()
		count, general := int(hdr>>1), hdr&1 == 1
		start := len(nodes)
		switch {
		case general:
			prev := int64(0)
			for range count {
				prev += signed()
				nodes = append(nodes, hged.NodeID(prev))
			}
		case count > 0:
			prevFirst += signed()
			v := prevFirst
			nodes = append(nodes, hged.NodeID(v))
			for range count - 1 {
				v += int64(unsigned()) + 1
				nodes = append(nodes, hged.NodeID(v))
			}
		}
		end := len(nodes)
		first := int64(0)
		if end > start {
			first = int64(nodes[start])
		}
		out[i] = PredictionView{Nodes: nodes[start:end:end], Seed: hged.NodeID(first + signed())}
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

// newJobManager starts cfg.Workers workers over a queue of cfg.QueueDepth
// jobs, keeping up to cfg.JobRetention finished ones; New has already
// filled the defaults in.
func newJobManager(reg *Registry, metrics *Metrics, cfg Config) *JobManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		reg:        reg,
		metrics:    metrics,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		jobs:       make(map[string]*Job),
		retain:     cfg.JobRetention,
	}
	for i := 0; i < cfg.Workers; i++ {
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
	// Evict before the new job joins m.order: a worker may already have
	// finished it, and the job being submitted never counts against
	// retention.
	m.evictLocked()
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
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

// List returns the retained jobs in submission order.
func (m *JobManager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, len(m.order))
	for i, id := range m.order {
		out[i] = m.jobs[id]
	}
	return out
}

// gauges reports how many jobs are currently queued and running.
func (m *JobManager) gauges() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.order {
		switch m.jobs[id].State() {
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
	// Release the job's context once it ends; until then it stays among
	// the base context's children, for the life of the manager.
	defer job.cancel()
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
