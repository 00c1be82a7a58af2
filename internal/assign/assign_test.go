package assign

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce finds the optimal assignment cost by enumerating permutations.
func bruteForce(cost [][]int64) int64 {
	n := len(cost)
	perm := make([]int, n)
	used := make([]bool, n)
	var best int64 = 1 << 60
	var rec func(i int, acc int64)
	rec = func(i int, acc int64) {
		if acc >= best {
			return
		}
		if i == n {
			best = acc
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i+1, acc+cost[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	if n == 0 {
		return 0
	}
	return best
}

func TestSolveEmpty(t *testing.T) {
	rc, total := Solve(nil)
	if rc != nil || total != 0 {
		t.Fatalf("empty: %v %d", rc, total)
	}
}

func TestSolveSingle(t *testing.T) {
	rc, total := Solve([][]int64{{7}})
	if len(rc) != 1 || rc[0] != 0 || total != 7 {
		t.Fatalf("single: %v %d", rc, total)
	}
}

func TestSolveKnown3x3(t *testing.T) {
	cost := [][]int64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	rc, total := Solve(cost)
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %d, want 5", total)
	}
	seen := make(map[int]bool)
	for _, c := range rc {
		if seen[c] {
			t.Fatal("assignment is not a permutation")
		}
		seen[c] = true
	}
}

func TestSolveIdentityOptimal(t *testing.T) {
	// Diagonal zeros, off-diagonal positive: identity is optimal.
	n := 6
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 10
			}
		}
	}
	rc, total := Solve(cost)
	if total != 0 {
		t.Fatalf("total = %d, want 0", total)
	}
	for i, c := range rc {
		if c != i {
			t.Fatalf("rc[%d] = %d, want identity", i, c)
		}
	}
}

func TestSolveForbiddenCells(t *testing.T) {
	// Force the anti-diagonal using Inf elsewhere.
	cost := [][]int64{
		{Inf, Inf, 1},
		{Inf, 2, Inf},
		{3, Inf, Inf},
	}
	rc, total := Solve(cost)
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	want := []int{2, 1, 0}
	for i := range want {
		if rc[i] != want[i] {
			t.Fatalf("rc = %v, want %v", rc, want)
		}
	}
}

func TestSolveMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
			for j := range cost[i] {
				cost[i][j] = int64(rng.Intn(20))
			}
		}
		_, got := Solve(cost)
		want := bruteForce(cost)
		if got != want {
			t.Fatalf("trial %d (n=%d): hungarian %d != brute force %d", trial, n, got, want)
		}
	}
}

func TestSolveAssignmentIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
			for j := range cost[i] {
				cost[i][j] = int64(rng.Intn(50))
			}
		}
		rc, total := Solve(cost)
		seen := make([]bool, n)
		var sum int64
		for i, c := range rc {
			if c < 0 || c >= n || seen[c] {
				return false
			}
			seen[c] = true
			sum += cost[i][c]
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveNotSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged matrix")
		}
	}()
	Solve([][]int64{{1, 2}, {3}})
}
