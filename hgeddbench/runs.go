package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// endToEndRun times w.setupRuns set-ups, warms the last server up, then
// measures the workload for cfg.seconds with nothing but the closed-loop
// client running.
func endToEndRun(w *workload, cfg config) (result, []counters, []string, error) {
	in := w.inputs(cfg.seed)
	setupS, srv, err := timedSetups(w, in)
	if err != nil {
		return result{}, nil, nil, err
	}
	p, err := newPass(w, in, srv, false)
	if err != nil {
		closeServer(srv)
		return result{}, nil, nil, err
	}
	p.run(w.warmup, 0, 0)
	p.measuring = true
	p.run(0, w.prefix, seconds(cfg.seconds))
	p.measuring = false

	ms := map[string]metric{
		"setup_s":        {setupS, "s"},
		"throughput_ops": {float64(p.measuredOps) / p.busy.Seconds(), "1/s"},
	}
	var missing []string
	quantile := func(name string, k opKind, q float64, scale float64, unit string) {
		if len(p.lat[k]) == 0 {
			missing = append(missing, name)
			return
		}
		ms[name] = metric{percentile(p.lat[k], q) * scale, unit}
	}
	for _, k := range []opKind{opDistance, opSigma, opRange, opKNN, opMutate} {
		quantile(k.String()+"_p50_ms", k, 0.5, 1e3, "ms")
		quantile(k.String()+"_p90_ms", k, 0.9, 1e3, "ms")
	}
	quantile("upload_p50_ms", opUpload, 0.5, 1e3, "ms")
	quantile("hep_job_s", opHEP, 0.5, 1, "s")
	if len(missing) > 0 {
		closeServer(srv)
		return result{}, nil, nil, fmt.Errorf("no samples for %v: the measured phase is too short", missing)
	}
	report := []string{fmt.Sprintf("measured %d operations in %.3f s of request time after %d warm-up chunks; samples per kind:%s",
		p.measuredOps, p.busy.Seconds(), w.warmup, sampleCounts(&p.lat))}
	report = append(report, p.failures...)

	// The live heap is read with the server still up and the benchmark's
	// own model dropped, so it is the server's state plus a small residue.
	res := result{Correct: p.failed == 0, Attempted: p.sent, Failed: p.failed}
	cnt := p.prefix
	p.m, p.gen = nil, nil
	ms["heap_mb"] = metric{liveHeapMiB(), "MiB"}
	closeServer(srv)
	res.Metrics = ms
	return res, []counters{*cnt}, report, nil
}

// tracedRun sends the same operations twice, each time to a freshly set-up
// server: first untraced for a third of cfg.seconds of request time, then
// traced. Each traced operation records the handler span and the model's
// facade calls as its child spans. The ratio of the two passes' request
// times, less one, is the tracing overhead: what the replays between
// requests add to the handler spans.
func tracedRun(w *workload, cfg config) (result, []counters, []string, error) {
	in := w.inputs(cfg.seed)
	var (
		passes [2]*pass
		walls  [2]time.Duration
		chunks int
	)
	for i := range passes {
		srv, err := setupServer(in)
		if err != nil {
			return result{}, nil, nil, err
		}
		p, err := newPass(w, in, srv, i == 1)
		if err != nil {
			closeServer(srv)
			return result{}, nil, nil, err
		}
		if i == 0 {
			chunks, walls[i] = p.run(w.warmup, w.prefix, seconds(cfg.seconds/3))
		} else {
			_, walls[i] = p.run(chunks, 0, 0)
		}
		closeServer(srv)
		passes[i] = p
	}
	a, b := passes[0], passes[1]
	res := result{
		Correct:   a.failed == 0 && b.failed == 0,
		Attempted: a.sent + b.sent,
		Failed:    a.failed + b.failed,
		Metrics:   b.lay.metrics(),
	}
	res.Metrics["trace.overhead_share"] = metric{b.busy.Seconds()/a.busy.Seconds() - 1, "ratio"}
	report := []string{fmt.Sprintf("traced %d operations: request time %.3f s untraced, %.3f s traced; wall time %.3f s and %.3f s",
		b.sent, a.busy.Seconds(), b.busy.Seconds(), walls[0].Seconds(), walls[1].Seconds())}
	report = append(report, a.failures...)
	report = append(report, b.failures...)
	return res, []counters{*a.prefix, *b.prefix}, report, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sampleCounts(lat *[numKinds][]float64) string {
	s := ""
	for k := opKind(0); k < numKinds; k++ {
		s += fmt.Sprintf(" %s=%d", k, len(lat[k]))
	}
	return s
}

// liveHeapMiB is the live heap after a forced collection. Two collections
// also drop what the previous cycle moved to sync.Pool victim caches.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// layers accumulates the traced pass's spans and work counts.
type layers struct {
	ops                           int
	n                             [numKinds]int
	handler, child                [numKinds]time.Duration
	respBytes                     int64
	respOps                       int
	pin                           time.Duration
	pins                          int
	ego, solve, explain, sigma    time.Duration
	refresh, query, commit, parse time.Duration
	egoCalls, solves, exceeded    int
	explains                      int
	expanded                      int64
	sigmaLookups, sigmaHits       int
	sigmaExpanded                 int64
	hepJobs, hepSeeds, hepPairs   int
	hepCached                     int
	hepExpanded                   int64
	jobWait, jobRun               time.Duration
	parses                        int
	parseAlloc                    uint64
	commits, invalidated          int
	searches, refreshes           int
	rows, rowsReused              int
	verified, candidates          int
	gcCycles, allocBytes          uint64
}

// pinRounds is how many Pin/Unpin pairs one pin sample times: a single
// pair takes nanoseconds, below the clock's useful resolution.
const pinRounds = 64

func (l *layers) add(m *model, o *op, d time.Duration, r *reply, sp *spans, rt runtimeSample) {
	l.ops++
	l.n[o.kind]++
	l.handler[o.kind] += d
	l.child[o.kind] += sp.children()
	if o.kind != opHEP {
		l.respBytes += int64(len(r.body))
		l.respOps++
	}
	if mg, ok := m.graphs[o.graph]; ok {
		start := time.Now()
		for i := 0; i < pinRounds; i++ {
			mg.vg.Pin().Unpin()
		}
		l.pin += time.Since(start)
		l.pins += pinRounds
	}
	l.ego += sp.ego
	l.egoCalls += sp.egoCalls
	l.solve += sp.solve
	l.solves += sp.solves
	l.expanded += sp.expanded
	l.exceeded += sp.exceeded
	if sp.explained {
		l.explain += sp.explain
		l.explains++
	}
	if o.kind == opSigma {
		l.sigma += sp.sigma
		l.sigmaLookups += sp.sigmaLookups
		l.sigmaHits += sp.sigmaHits
		l.sigmaExpanded += sp.sigmaExpanded
	}
	if sp.hep != nil {
		l.hepJobs++
		l.hepSeeds += sp.hep.Seeds
		l.hepPairs += sp.hep.PairsComputed
		l.hepCached += sp.hep.PairsCached + sp.hep.PairsDeduped
		l.hepExpanded += sp.hep.Expanded
		l.jobWait += sp.jobWait
		l.jobRun += sp.jobRun
	}
	if o.kind == opUpload {
		l.parse += sp.parse
		l.parses++
		l.parseAlloc += sp.parseAlloc
	}
	if o.kind == opMutate {
		l.commit += sp.commit
		l.commits++
		l.invalidated += sp.invalidated
	}
	if o.kind == opRange || o.kind == opKNN {
		l.searches++
		if sp.refreshed {
			l.refreshes++
			l.refresh += sp.refresh
			l.rows += sp.rows
			l.rowsReused += sp.rowsReused
		}
		l.query += sp.query
		l.verified += sp.verified
		l.candidates += sp.candidates
	}
	l.gcCycles += rt.gcCycles
	l.allocBytes += rt.allocBytes
}

// ratio is a/b, or 0 when the layer saw no work on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration, n int) float64 { return ratio(float64(d.Microseconds()), float64(n)) }

func (l *layers) self(k opKind) float64 {
	return us(l.handler[k]-l.child[k], l.n[k])
}

func f[T ~int | ~int64 | ~uint64](x T) float64 { return float64(x) }

func (l *layers) metrics() map[string]metric {
	return map[string]metric{
		"server.distance_self_us":                 {l.self(opDistance), "us"},
		"server.sigma_self_us":                    {l.self(opSigma), "us"},
		"server.response_bytes_per_op":            {ratio(f(l.respBytes), f(l.respOps)), "bytes"},
		"server.range_self_us":                    {l.self(opRange), "us"},
		"server.knn_self_us":                      {l.self(opKNN), "us"},
		"server.index_refresh_share":              {ratio(f(l.refreshes), f(l.searches)), "ratio"},
		"server.mutate_self_us":                   {l.self(opMutate), "us"},
		"server.upload_self_us":                   {l.self(opUpload), "us"},
		"server.job_wait_ms":                      {ratio(f(l.jobWait.Microseconds())/1e3, f(l.hepJobs)), "ms"},
		"server.job_run_ms":                       {ratio(f(l.jobRun.Microseconds())/1e3, f(l.hepJobs)), "ms"},
		"hgio.parse_us":                           {us(l.parse, l.parses), "us"},
		"hgio.parse_alloc_kb":                     {ratio(f(l.parseAlloc)/1024, f(l.parses)), "KiB"},
		"hypergraph.pin_ns":                       {ratio(f(l.pin.Nanoseconds()), f(l.pins)), "ns"},
		"hypergraph.ego_us":                       {us(l.ego, l.egoCalls), "us"},
		"hypergraph.ego_calls_per_op":             {ratio(f(l.egoCalls), f(l.ops)), "count"},
		"hypergraph.commit_us":                    {us(l.commit, l.commits), "us"},
		"hypergraph.invalidated_nodes_per_commit": {ratio(f(l.invalidated), f(l.commits)), "count"},
		"core.solve_us":                           {us(l.solve, l.solves), "us"},
		"core.expansions_per_solve":               {ratio(f(l.expanded), f(l.solves)), "count"},
		"core.exceeded_ratio":                     {ratio(f(l.exceeded), f(l.solves)), "ratio"},
		"core.explain_us":                         {us(l.explain, l.explains), "us"},
		"predict.sigma_us":                        {us(l.sigma, l.n[opSigma]), "us"},
		"predict.sigma_hit_ratio":                 {ratio(f(l.sigmaHits), f(l.sigmaLookups)), "ratio"},
		"predict.sigma_expanded_per_op":           {ratio(f(l.sigmaExpanded), f(l.n[opSigma])), "count"},
		"predict.hep_seeds":                       {ratio(f(l.hepSeeds), f(l.hepJobs)), "count"},
		"predict.hep_pairs_computed":              {ratio(f(l.hepPairs), f(l.hepJobs)), "count"},
		"predict.hep_cache_hit_ratio":             {ratio(f(l.hepCached), f(l.hepCached+l.hepPairs)), "ratio"},
		"predict.hep_expanded":                    {ratio(f(l.hepExpanded), f(l.hepJobs)), "count"},
		"search.refresh_us":                       {us(l.refresh, l.refreshes), "us"},
		"search.rows_reused_ratio":                {ratio(f(l.rowsReused), f(l.rows)), "ratio"},
		"search.query_us":                         {us(l.query, l.searches), "us"},
		"search.verified_per_query":               {ratio(f(l.verified), f(l.searches)), "count"},
		"search.pruned_ratio":                     {ratio(f(l.candidates-l.verified), f(l.candidates)), "ratio"},
		"runtime.gc_cycles_per_op":                {ratio(f(l.gcCycles), f(l.ops)), "count"},
		"runtime.alloc_kb_per_op":                 {ratio(f(l.allocBytes)/1024, f(l.ops)), "KiB"},
	}
}
