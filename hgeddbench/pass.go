package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"hged/internal/server"
)

// setupServer builds a server with the shipped defaults (pivots off) and
// uploads the workload's graphs through the handler, as a client would;
// corpus-churn also builds the first search index.
func setupServer(in *inputs) (*server.Server, error) {
	s := server.New(server.Config{})
	h := s.Handler()
	for _, u := range in.uploads {
		o := op{kind: opUpload, graph: u.name, text: u.text}
		method, path, body := o.request()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			closeServer(s)
			return nil, fmt.Errorf("set-up upload %s: status %d: %s", u.name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	if in.initIndex {
		if err := s.InitSearchIndex(context.Background()); err != nil {
			closeServer(s)
			return nil, fmt.Errorf("set-up index build: %w", err)
		}
	}
	return s, nil
}

// counters are the work counters of a pass's first w.prefix operations.
// They must repeat exactly between runs of one binary and seed. Allocation
// figures are left out because the solver pool, emptied by each GC, makes
// them vary; so are the σ-memo counts of HEP jobs, which depend on the
// order the job's two workers reach a pair in (see model.predict).
type counters struct {
	Ops              int
	DistanceExpanded int64
	SigmaComputed    int
	SigmaHits        int
	SigmaExpanded    int64
	SearchVerified   int
	SearchCandidates int
	Invalidated      int
	HEPSeeds         int
	HEPComponents    int
	ResponseBytes    int64
	Answers          uint64
}

func (c counters) String() string {
	return fmt.Sprintf("distance_expanded=%d sigma_computed=%d sigma_hits=%d sigma_expanded=%d search_verified=%d search_candidates=%d invalidated_nodes=%d hep_seeds=%d hep_components=%d response_bytes=%d answers=%016x",
		c.DistanceExpanded, c.SigmaComputed, c.SigmaHits, c.SigmaExpanded, c.SearchVerified, c.SearchCandidates,
		c.Invalidated, c.HEPSeeds, c.HEPComponents, c.ResponseBytes, c.Answers)
}

// pass sends one workload's request sequence to one server.
type pass struct {
	w      *workload
	srv    *server.Server
	h      http.Handler
	m      *model
	gen    *generator
	traced bool

	sent, failed int
	failures     []string
	dig          digest
	cnt          counters
	prefix       *counters

	busy time.Duration // Σ request latency since run started

	// measured phase (end-to-end run)
	measuring   bool
	lat         [numKinds][]float64 // seconds
	measuredOps int

	lay layers // traced pass
}

func newPass(w *workload, in *inputs, srv *server.Server, traced bool) (*pass, error) {
	m, err := newModel(in)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(w, in)
	if err != nil {
		return nil, err
	}
	return &pass{w: w, srv: srv, h: srv.Handler(), m: m, gen: gen, traced: traced, dig: newDigest()}, nil
}

func (p *pass) do(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// exchange is one sent operation with its reply and timing.
type exchange struct {
	o       op
	d       time.Duration
	rt      runtimeSample
	status  int
	body    []byte
	jobBody []byte
}

// send issues o and, for a HEP job, waits until the job is done and fetches
// its status — one operation from submit to done.
func (p *pass) send(x *exchange) {
	method, path, reqBody := x.o.request()
	var rt0 runtimeSample
	if p.traced {
		rt0 = readRuntime()
	}
	start := time.Now()
	x.status, x.body = p.do(method, path, reqBody)
	if x.o.kind == opHEP && x.status == http.StatusAccepted {
		var sub struct{ ID string }
		if json.Unmarshal(x.body, &sub) == nil {
			if job, ok := p.srv.Jobs().Get(sub.ID); ok {
				<-job.Done()
				_, x.jobBody = p.do("GET", "/v1/jobs/"+sub.ID, nil)
			}
		}
	}
	x.d = time.Since(start)
	if p.traced {
		x.rt = readRuntime().sub(rt0)
	}
}

// chunk sends one chunk of the sequence back to back, timing each request,
// then checks every reply against the model and collects the garbage. The
// benchmark's own work thus never runs between two timed requests, and the
// collector starts each chunk from the same state instead of one the
// checking left behind. A traced pass instead replays each request right
// after it, so the child spans run in the state the handler just ran in.
func (p *pass) chunk() {
	ops := p.gen.chunk()
	xs := make([]exchange, len(ops))
	for i := range ops {
		xs[i].o = ops[i]
		p.send(&xs[i])
		if p.traced {
			p.check(&xs[i])
		}
	}
	if !p.traced {
		for i := range xs {
			p.check(&xs[i])
		}
	}
	if p.w.release {
		debug.FreeOSMemory()
	} else {
		runtime.GC()
	}
}

func (p *pass) check(x *exchange) {
	r := reply{status: x.status, body: x.body}
	if x.jobBody != nil {
		var v server.JobView
		if err := json.Unmarshal(x.jobBody, &v); err == nil {
			r.job = &v
		}
	}
	sp := spans{measureAlloc: p.traced}
	if err := p.m.apply(&x.o, &r, &sp, &p.dig); err != nil {
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, fmt.Sprintf("op %d (%s %s): %v", p.sent, x.o.kind, x.o.graph, err))
		}
	}
	p.sent++
	p.count(&x.o, &r, &sp)
	p.busy += x.d
	if p.measuring {
		p.lat[x.o.kind] = append(p.lat[x.o.kind], x.d.Seconds())
		p.measuredOps++
	}
	if p.traced {
		p.lay.add(p.m, &x.o, x.d, &r, &sp, x.rt)
	}
}

func (p *pass) count(o *op, r *reply, sp *spans) {
	c := &p.cnt
	c.Ops++
	c.DistanceExpanded += sp.expanded
	c.SigmaComputed += sp.sigmaComputed
	c.SigmaHits += sp.sigmaHits
	c.SigmaExpanded += sp.sigmaExpanded
	c.SearchVerified += sp.verified
	c.SearchCandidates += sp.candidates
	c.Invalidated += sp.invalidated
	if sp.hep != nil {
		c.HEPSeeds += sp.hep.Seeds
		c.HEPComponents += sp.hep.Components
	}
	// Job replies carry timestamps and the state at submit time; their
	// sizes are left out.
	if o.kind != opHEP {
		c.ResponseBytes += int64(len(r.body))
	}
	if c.Ops == p.w.prefix {
		snap := *c
		snap.Answers = p.dig.h
		p.prefix = &snap
	}
}

// run sends chunks until at least minChunks chunks and minOps operations
// are done and the request time of this call has reached busy. It returns
// the number of chunks sent and the wall time taken.
func (p *pass) run(minChunks, minOps int, busy time.Duration) (int, time.Duration) {
	start := time.Now()
	p.busy = 0
	n := 0
	for ; n < minChunks || p.sent < minOps || p.busy < busy; n++ {
		p.chunk()
	}
	return n, time.Since(start)
}

// runtimeSample is a reading of the process-wide GC and allocation
// counters. runtime/metrics reads them without stopping the world; small
// allocations are counted per span of memory handed to an allocator cache,
// so a single operation's figure is approximate and sums over many are not.
type runtimeSample struct{ gcCycles, allocBytes uint64 }

var runtimeNames = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCycles - b.gcCycles, a.allocBytes - b.allocBytes}
}
