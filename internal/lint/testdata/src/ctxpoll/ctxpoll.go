// Package ctxpoll is the hgedvet fixture for the ctxpoll analyzer: a loop
// that increments an expansion counter must poll cancellation.
package ctxpoll

import "context"

// Options mirrors the solver core's cancellation surface: a context plus
// the throttled poll helpers.
type Options struct {
	Context context.Context
}

func (o Options) cancelled(expanded int64) bool {
	return o.Context != nil && expanded%1024 == 0 && o.Context.Err() != nil
}

func (o Options) ctxCancelled() bool { return o.Context != nil && o.Context.Err() != nil }

// Not flagged: the main-loop idiom, polling every expansion batch.
func searchPolling(opts Options, step func() bool) int64 {
	var expanded int64
	for step() {
		expanded++
		if opts.cancelled(expanded) {
			break
		}
	}
	return expanded
}

// Flagged: expands states but can never be cancelled.
func searchUnkillable(opts Options, step func() bool) int64 {
	var expanded int64
	for step() {
		expanded++ // want ctxpoll "never polls cancellation"
	}
	return expanded
}

// Not flagged: recursion through a closure still polls (the DFS shape).
func recursivePolling(opts Options, fanout func(int) int) int64 {
	var expanded int64
	var rec func(depth int)
	rec = func(depth int) {
		expanded++
		if opts.cancelled(expanded) || depth == 0 {
			return
		}
		for i := 0; i < fanout(depth); i++ {
			rec(depth - 1)
		}
	}
	rec(8)
	return expanded
}

// Flagged: the poll after the loop cannot stop the loop, which runs to
// its end before reaching it.
func pollAfterLoop(opts Options, step func() bool) (int64, bool) {
	var expanded int64
	for step() {
		expanded++ // want ctxpoll "never polls cancellation"
	}
	return expanded, opts.ctxCancelled()
}

// Flagged: the poll sits in the outer loop, but the counter climbs in the
// inner one.
func pollInOuterLoop(opts Options, rows func() bool, step func() bool) int64 {
	var expanded int64
	for rows() {
		for step() {
			expanded++ // want ctxpoll "never polls cancellation"
		}
		if opts.cancelled(expanded) {
			break
		}
	}
	return expanded
}

// Flagged: the permutation-enumeration counter without a poll.
func enumerate(opts Options, steps *int64, next func() bool) {
	var spent int64
	for next() {
		spent++ // want ctxpoll "never polls cancellation"
	}
	*steps += spent
}

// Not flagged: polling the context directly also satisfies the contract.
func directErrPoll(ctx context.Context, step func() bool) int64 {
	var expanded int64
	for step() {
		expanded++
		if expanded%1024 == 0 && ctx.Err() != nil {
			break
		}
	}
	return expanded
}

// Not flagged: ordinary counters are not expansion counters.
func unrelatedCounter(step func() bool) int {
	count := 0
	for step() {
		count++
	}
	return count
}

// Not flagged: suppressed with a justification.
func boundedSweep(opts Options, step func() bool) int64 {
	var expanded int64
	for i := 0; i < 64 && step(); i++ {
		expanded++ //hgedvet:ignore ctxpoll bounded to 64 iterations; cancellation latency is negligible
	}
	return expanded
}
