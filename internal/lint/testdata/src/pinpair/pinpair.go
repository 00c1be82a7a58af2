// Fixture for the pinpair analyzer: generation pins must be unpinned on
// every return path, with ownership-transfer returns exempt.
package pinpair

// Gen mimics an MVCC generation: anything with an Unpin method.
type Gen struct{ pins int }

// Unpin releases the pin.
func (g *Gen) Unpin() { g.pins-- }

// Versioned mimics the MVCC wrapper; Pin's shape — a method named Pin whose
// result has an Unpin method — is what the analyzer keys on.
type Versioned struct{ cur *Gen }

// Pin pins the current generation.
func (v *Versioned) Pin() *Gen { v.cur.pins++; return v.cur }

func leakOnEarlyReturn(v *Versioned) int {
	gen := v.Pin() // want pinpair "no matching Unpin on every path"
	if gen.pins > 1 {
		return 1 // leaks the pin
	}
	gen.Unpin()
	return 0
}

func neverReleased(v *Versioned) {
	gen := v.Pin() // want pinpair "no matching Unpin on every path"
	_ = gen.pins
}

func deferredRelease(v *Versioned) int {
	gen := v.Pin()
	defer gen.Unpin()
	return gen.pins
}

func inlineRelease(v *Versioned) {
	gen := v.Pin()
	_ = gen.pins
	gen.Unpin()
}

func releaseOnEveryPath(v *Versioned) int {
	gen := v.Pin()
	if gen.pins > 1 {
		gen.Unpin()
		return 1
	}
	gen.Unpin()
	return 0
}

// transfer hands the pin to the caller — the registry's GraphEntry.Pin
// wrapper shape — and is exempt.
func transfer(v *Versioned) *Gen {
	return v.Pin()
}

// chainedRelease takes a pin and releases it in one expression: the
// Unpin's receiver is the Pin call itself.
func chainedRelease(v *Versioned) int {
	v.Pin().Unpin()
	return 0
}

// finish unpins on the caller's behalf; its FactUnpins summary makes the
// call count as a release in helperRelease.
func finish(g *Gen) { g.Unpin() }

func helperRelease(v *Versioned) {
	gen := v.Pin()
	finish(gen)
}

type holder struct{ gen *Gen }

func storedPin(v *Versioned) *holder {
	//hgedvet:ignore pinpair pin ownership moves into the holder; its owner unpins via holder.release
	h := &holder{gen: v.Pin()}
	return h
}

func (h *holder) release() { h.gen.Unpin() }
