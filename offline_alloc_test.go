package crystalchoice

import (
	"testing"

	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/explore"
)

// TestAllocRegressionRandtreeSnapshot is the per-state allocation gate's
// row for real handlers (make bench-alloc). internal/explore's rows
// (TestAllocRegressionPerState) explore a synthetic relay world; this one
// explores the 31-node randtree snapshot the mc_offline benchmark
// measures, breadth-first to depth 10 on one worker as that workload's
// one-worker exploration runs, with the three tree properties checked at
// every state. It lives here because internal/explore cannot import an
// app. The budget has ~1.5× headroom over the steady state (measured:
// 2.06 allocs/state); a failure means the explorer or randtree's fork
// started allocating per state again, and should be treated like a
// performance regression, not loosened casually.
func TestAllocRegressionRandtreeSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	if raceEnabled {
		t.Skip("race detector drops sync.Pool operations; per-state pins are meaningless")
	}
	const budget = 3.0
	w := randtreeSnapshot(31, 1, false)
	mk := func() *explore.Explorer {
		x := explore.NewExplorer(10)
		x.MaxStates = 10000
		x.Strategy = explore.BFS{}
		x.Properties = randtree.Properties()
		return x
	}
	mk().Explore(w) // warm the free lists, as the benchmark's set-up does
	states := 0
	avg := testing.AllocsPerRun(5, func() {
		r := mk().Explore(w)
		if !r.Safe() {
			t.Fatalf("healthy snapshot predicts %v", r.Violations)
		}
		states = r.StatesExplored
	})
	if states == 0 {
		t.Fatal("no states explored")
	}
	got := avg / float64(states)
	t.Logf("randtree snapshot bfs, 1 worker: %d states, %.2f allocs/state", states, got)
	if got > budget {
		t.Errorf("%.2f allocs per state, budget %.1f — the randtree exploration path regressed", got, budget)
	}
}
