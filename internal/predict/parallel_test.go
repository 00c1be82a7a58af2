package predict

import (
	"context"
	"fmt"
	"testing"

	"hged/internal/gen"
)

// TestParallelDeterminismPlanted enforces the doc-comment promise that a
// parallel Run produces byte-identical output to the sequential run, on a
// seeded planted-community graph and under the race detector (CI runs this
// package with -race).
func TestParallelDeterminismPlanted(t *testing.T) {
	g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 40, Edges: 60, Seed: 11, NodeLabelCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Lambda: 2, Tau: 3}
	seq, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v", seq.Run())

	par := opts
	par.Parallelism = 8
	pp, err := New(g, par)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%v", pp.Run())
	if got != want {
		t.Fatalf("parallel output diverged from sequential:\n seq: %s\n par: %s", want, got)
	}
}

// TestRunContextCancel checks that a cancelled context stops the run and
// surfaces the error, sequentially and in parallel.
func TestRunContextCancel(t *testing.T) {
	g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 40, Edges: 60, Seed: 11, NodeLabelCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		p, err := New(g, Options{Lambda: 2, Tau: 3, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		preds, err := p.RunContext(ctx, nil)
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if preds != nil {
			t.Fatalf("workers=%d: cancelled run returned predictions", workers)
		}
	}
}

// TestRunContextProgress checks the progress callback contract: an initial
// (0, total) call, then one call per seed ending at (total, total), with
// done strictly ascending — also when four workers report concurrently.
func TestRunContextProgress(t *testing.T) {
	for _, par := range []int{1, 4} {
		g := twoCommunities()
		p, err := New(g, Options{Lambda: 2, Tau: 3, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		// The calls are serialized, so appending without a lock of its own
		// is race-free.
		var calls [][2]int
		preds, err := p.RunContext(context.Background(), func(done, total int) {
			calls = append(calls, [2]int{done, total})
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) == 0 {
			t.Fatalf("parallelism %d: progress never called", par)
		}
		total := calls[0][1]
		if calls[0][0] != 0 {
			t.Fatalf("parallelism %d: first call = %v, want (0, total)", par, calls[0])
		}
		last := calls[len(calls)-1]
		if last[0] != total || last[1] != total {
			t.Fatalf("parallelism %d: last call = %v, want (%d, %d)", par, last, total, total)
		}
		if len(calls) != total+1 {
			t.Fatalf("parallelism %d: %d progress calls for %d seeds, want %d", par, len(calls), total, total+1)
		}
		for i := 1; i < len(calls); i++ {
			if calls[i][0] <= calls[i-1][0] {
				t.Fatalf("parallelism %d: done stepped from %d to %d", par, calls[i-1][0], calls[i][0])
			}
		}
		if preds == nil {
			t.Logf("parallelism %d: no predictions on this fixture (acceptable)", par)
		}
	}
}
