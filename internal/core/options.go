package core

import "context"

// Options configures the HGED solvers. The zero value means: no threshold,
// default expansion budget, all pruning strategies enabled.
type Options struct {
	// Context, when non-nil, makes the solver cancellable: it is polled
	// every cancelCheckEvery expansions alongside the MaxExpansions
	// accounting, and once cancelled the solver stops like a budget
	// exhaustion — best known upper bound, Exact=false — with
	// Cancelled=true. Nil means never cancelled.
	Context context.Context
	// Threshold is the verification threshold τ. When > 0, the solver may
	// stop as soon as it can prove HGED > τ, returning Exceeded=true; the
	// paper's Strategy 2 notes this "largely reduces running time" and the
	// HEP framework relies on it. Values ≤ 0 mean unbounded search.
	Threshold int
	// MaxExpansions caps the number of search states expanded. 0 means the
	// default (4,000,000). When the cap is hit the solver returns its best
	// known upper bound with Exact=false.
	MaxExpansions int64
	// DisableRerank turns off Strategy 1 (degree/label/cardinality
	// re-ranking of the matching order). Ablation hook.
	DisableRerank bool
	// DisableUpperBound turns off Strategy 2 (sampled initial upper
	// bound). Ablation hook.
	DisableUpperBound bool
	// DisableLowerBound turns off Strategy 3 (label-based + hyperedge-based
	// suffix lower bounds). Ablation hook.
	DisableLowerBound bool
	// Costs selects the edit-operation cost model. Nil means the paper's
	// unit costs. Invalid models (see CostModel.Validate) panic, as they
	// are programmer errors.
	Costs *CostModel
}

func (o Options) costModel() CostModel {
	if o.Costs == nil {
		return UnitCosts()
	}
	if err := o.Costs.Validate(); err != nil {
		panic(err)
	}
	return *o.Costs
}

const defaultMaxExpansions = 4_000_000

func (o Options) maxExpansions() int64 {
	if o.MaxExpansions <= 0 {
		return defaultMaxExpansions
	}
	return o.MaxExpansions
}

// unbounded is the threshold of a search without one: above every
// distance, it neither tightens a bound nor proves exceedance.
const unbounded = 1 << 30

// Tau is the solvers' threshold: Threshold, or a value above every
// distance when Threshold is ≤ 0. BFS is Within at opts.Tau().
func (o Options) Tau() int {
	if o.Threshold <= 0 {
		return unbounded
	}
	return min(o.Threshold, unbounded)
}

// cancelCheckEvery is the cancellation polling stride: Options.Context is
// consulted once per this many expansions, keeping the check off the hot
// path while bounding cancellation latency to a few thousand state visits.
const cancelCheckEvery = 1024

// ctxCancelled reports whether the configured context has been cancelled.
func (o Options) ctxCancelled() bool { return o.Context != nil && o.Context.Err() != nil }

// cancelled is the periodic poll: true when a context is set, the expansion
// counter is on the polling stride, and the context has been cancelled.
func (o Options) cancelled(expanded int64) bool {
	return o.Context != nil && expanded%cancelCheckEvery == 0 && o.Context.Err() != nil
}

// Result reports the outcome of an HGED computation.
type Result struct {
	// Distance is the computed edit distance. When Exceeded is true it is
	// instead a proven lower bound (> τ). When Exact is false it is the
	// best upper bound found before the expansion budget ran out.
	Distance int
	// Path is the edit path realizing Distance, when one was requested and
	// a complete mapping was found (nil when Exceeded).
	Path *Path
	// Exceeded reports a result above the threshold τ. HGED-BFS sets it
	// only on proof of HGED > τ, never for a capped incumbent; HGED-DFS and
	// HGED-HEU set it for any best result above τ, also when capped (Exact
	// false). Within tests a result against τ.
	Exceeded bool
	// Exact is true when the solver proved optimality (or exceedance);
	// false when the expansion budget was exhausted first.
	Exact bool
	// Cancelled reports that Options.Context was cancelled before the
	// solver finished; the result is then a best-effort upper bound, as
	// after a budget exhaustion (Exact=false).
	Cancelled bool
	// Expanded counts search states expanded (search effort).
	Expanded int64
}

// Within is the acceptance rule of a thresholded verification: no
// exceedance, no cancellation, and a Distance — exact, or under an
// expansion cap an upper bound — of at most tau.
func (r Result) Within(tau int) bool {
	return !r.Exceeded && !r.Cancelled && r.Distance <= tau
}
