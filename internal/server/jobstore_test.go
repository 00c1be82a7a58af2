package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"hged"
)

// TestPredStoreJSONIdentical checks that the compact job-result store
// serializes exactly like the per-prediction views it replaced, including
// the omitted field of a job with no predictions. Even iterations hold
// what HEP emits, strictly ascending node sets in sorted order; odd ones
// hold node sets unsorted and with repeats. Sets have one to eight
// members, seeds are drawn at random (mostly outside the set, often below
// its first member), and from iteration 100 on ids reach 2^31−1, the last
// quarter of them packed just below it. A fixed store covers the edge
// cases by hand.
func TestPredStoreJSONIdentical(t *testing.T) {
	const maxNodeID = 1<<31 - 1
	check := func(name string, preds []hged.Prediction) {
		t.Helper()
		old := JobView{Predictions: make([]PredictionView, len(preds))}
		for i, p := range preds {
			old.Predictions[i] = PredictionView{Nodes: p.Nodes, Seed: p.Seed}
		}
		want, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(JobView{Predictions: packPredictions(preds).views()})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: compact store JSON\n%s\nwant\n%s", name, got, want)
		}
	}
	check("empty store", nil)
	check("edge cases", []hged.Prediction{
		{Nodes: []hged.NodeID{5}, Seed: 5},                                       // one member, seed inside
		{Nodes: []hged.NodeID{7}, Seed: 2},                                       // one member, seed below it
		{Nodes: []hged.NodeID{3, 9}, Seed: 40},                                   // first member below the previous one, seed above
		{Nodes: []hged.NodeID{0, maxNodeID}, Seed: maxNodeID},                    // widest gap
		{Nodes: []hged.NodeID{maxNodeID - 2, maxNodeID - 1, maxNodeID}, Seed: 0}, // ids at the top, seed at the bottom
		{Nodes: []hged.NodeID{maxNodeID, 0}, Seed: maxNodeID},                    // descending
		{Nodes: []hged.NodeID{4, 4}, Seed: 4},                                    // a repeat
		{Nodes: []hged.NodeID{1, 2}, Seed: 1},                                    // back to ascending after general sets
		{Nodes: []hged.NodeID{maxNodeID - 1, maxNodeID}, Seed: maxNodeID - 1},    // first-member delta near 2^31
		{Nodes: []hged.NodeID{0}, Seed: maxNodeID},                               // and back down
	})

	rng := rand.New(rand.NewSource(1))
	for iter := 1; iter < 200; iter++ {
		lo, hi := 0, 1000
		if iter >= 100 {
			hi = maxNodeID
		}
		if iter >= 150 {
			lo = maxNodeID - 50
		}
		id := func() hged.NodeID { return hged.NodeID(lo + rng.Intn(hi-lo+1)) }
		ascending := iter%2 == 0
		preds := make([]hged.Prediction, 1+rng.Intn(40))
		for i := range preds {
			nodes := make([]hged.NodeID, 1+rng.Intn(8))
			for k := range nodes {
				nodes[k] = id()
			}
			if ascending {
				slices.Sort(nodes)
				nodes = slices.Compact(nodes)
			}
			preds[i] = hged.Prediction{Nodes: nodes, Seed: id()}
		}
		if ascending {
			slices.SortFunc(preds, func(a, b hged.Prediction) int { return slices.Compare(a.Nodes, b.Nodes) })
		}
		check("random store", preds)
	}
}
