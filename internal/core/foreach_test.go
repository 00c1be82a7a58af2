package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachSequentialOrder: workers ≤ 1 runs every task in index order
// on the calling goroutine.
func TestForEachSequentialOrder(t *testing.T) {
	for _, workers := range []int{-3, 0, 1} {
		var order []int
		done, err := ForEach(context.Background(), 5, workers, func(i int) { order = append(order, i) })
		if done != 5 || err != nil {
			t.Fatalf("workers=%d: ForEach = (%d, %v), want (5, nil)", workers, done, err)
		}
		if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("workers=%d: order %v", workers, order)
		}
	}
}

// TestForEachParallelRunsEveryIndexOnce: the parallel path runs each index
// exactly once and reports n done.
func TestForEachParallelRunsEveryIndexOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int32
	done, err := ForEach(context.Background(), n, 4, func(i int) { counts[i].Add(1) })
	if done != n || err != nil {
		t.Fatalf("ForEach = (%d, %v), want (%d, nil)", done, err, n)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestForEachClampsWorkers: more workers than tasks start only n
// goroutines. The n tasks block until all of them have started, so the
// goroutine count is sampled while every worker is alive.
func TestForEachClampsWorkers(t *testing.T) {
	const n, workers = 3, 64
	base := runtime.NumGoroutine()
	var started sync.WaitGroup
	started.Add(n)
	release := make(chan struct{})
	peak := make(chan int, 1)
	go func() {
		started.Wait()
		peak <- runtime.NumGoroutine()
		close(release)
	}()
	done, err := ForEach(context.Background(), n, workers, func(int) {
		started.Done()
		<-release
	})
	if done != n || err != nil {
		t.Fatalf("ForEach = (%d, %v), want (%d, nil)", done, err, n)
	}
	// base + n workers + the sampling goroutine.
	if got := <-peak; got > base+n+1 {
		t.Fatalf("%d goroutines while %d tasks ran (base %d): workers not clamped to n", got, n, base)
	}
}

// TestForEachCancel: once ctx is cancelled no further task starts; the
// done count is the number of tasks that ran, and the error is ctx.Err()
// itself, comparable with ==.
func TestForEachCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := atomic.Int32{}
		done, err := ForEach(ctx, 10, workers, func(int) { ran.Add(1) })
		if done != 0 || err != context.Canceled || ran.Load() != 0 {
			t.Fatalf("workers=%d pre-cancelled: ForEach = (%d, %v), ran %d", workers, done, err, ran.Load())
		}
	}

	ctx, cancel = context.WithCancel(context.Background())
	done, err := ForEach(ctx, 10, 1, func(i int) {
		if i == 3 {
			cancel()
		}
	})
	if done != 4 || err != context.Canceled {
		t.Fatalf("sequential cancel at task 3: ForEach = (%d, %v), want (4, context.Canceled)", done, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	var ran atomic.Int32
	done, err = ForEach(ctx, 1000, 4, func(i int) {
		if ran.Add(1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if err != context.Canceled || done != int(ran.Load()) || done >= 1000 {
		t.Fatalf("parallel cancel: ForEach = (%d, %v), ran %d", done, err, ran.Load())
	}
}
