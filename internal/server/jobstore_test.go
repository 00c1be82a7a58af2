package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"hged"
)

// TestPredStoreJSONIdentical checks that the compact job-result store
// serializes exactly like the per-prediction views it replaced, including
// the omitted field of a job with no predictions. Node sets come unsorted,
// with repeats, and from iteration 50 on with ids of up to 31 bits.
func TestPredStoreJSONIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		maxID := 1000
		if iter >= 50 {
			maxID = 1<<31 - 1
		}
		n := rng.Intn(40)
		if iter == 0 {
			n = 0
		}
		preds := make([]hged.Prediction, n)
		for i := range preds {
			nodes := make([]hged.NodeID, 2+rng.Intn(7))
			for k := range nodes {
				nodes[k] = hged.NodeID(rng.Intn(maxID))
			}
			preds[i] = hged.Prediction{Nodes: nodes, Seed: hged.NodeID(rng.Intn(maxID))}
		}
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
			t.Fatalf("iter %d: compact store JSON\n%s\nwant\n%s", iter, got, want)
		}
	}
}
