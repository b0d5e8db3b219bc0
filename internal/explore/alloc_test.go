package explore

import (
	"testing"

	"crystalchoice/internal/sm"
)

// Allocation-regression tests for the expansion hot path. The lookahead
// budget is wall-clock bound (paper §2: the search runs beside the live
// system), so per-state allocation is a product metric: these tests pin
// it on the common, non-violating path — chain and BFS traversals,
// faults off and on — and fail if bookkeeping allocations creep back
// in. Run via `make bench-alloc` (and ordinary `go test`).

// allocWorld is a wide relay world: chains long enough to amortize the
// per-run fixed cost (explorer, scheduler, report, digest priming) so
// the quotient approximates the true per-state marginal cost.
func allocWorld() *World {
	return fanWorld(8, 4, 24)
}

// allocsPerState measures steady-state allocations per explored state
// for one explorer configuration.
func allocsPerState(t *testing.T, w *World, mk func() *Explorer) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector drops sync.Pool operations; per-state pins are meaningless")
	}
	states := 0
	avg := testing.AllocsPerRun(10, func() {
		r := mk().Explore(w)
		states = r.StatesExplored
	})
	if states == 0 {
		t.Fatal("no states explored")
	}
	return avg / float64(states)
}

// TestAllocRegressionPerState pins the per-state allocation budget of
// the non-violating expansion path. The bounds have ~1.5× headroom over
// the steady state (measured: chain 2.6, chain+faults 0.6, bfs 3.3,
// bfs+faults 3.3 — the fan-out floors depend on the drain order:
// newest-first hands each dead shell to the next fork, and a truncated
// run recycles what it leaves pending, where a level-order frontier
// would outgrow the shell free-list); a failure means a
// hot-path change reintroduced per-branch bookkeeping (eager labels,
// trace copies, un-recycled worlds, re-boxed pool returns) and should be
// treated like a performance regression, not loosened casually.
func TestAllocRegressionPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	cases := []struct {
		name   string
		mk     func() *Explorer
		budget float64 // max allocs per explored state
	}{
		{"chain", func() *Explorer {
			x := NewExplorer(24)
			x.MaxStates = 1 << 16
			return x
		}, 4},
		{"chain+faults", func() *Explorer {
			x := NewExplorer(6)
			x.MaxStates = 1 << 16
			x.FaultBudget = 1
			return x
		}, 1},
		{"bfs", func() *Explorer {
			x := NewExplorer(6)
			x.MaxStates = 4096
			x.Strategy = BFS{}
			return x
		}, 5},
		{"bfs+faults", func() *Explorer {
			x := NewExplorer(5)
			x.MaxStates = 4096
			x.Strategy = BFS{}
			x.FaultBudget = 1
			return x
		}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := allocWorld()
			if tc.mk().FaultBudget > 0 {
				w.Initial = func(id NodeID) sm.Service { return &relay{id: id, n: 32} }
			}
			got := allocsPerState(t, w, tc.mk)
			t.Logf("%s: %.2f allocs/state", tc.name, got)
			if got > tc.budget {
				t.Errorf("%s: %.2f allocs per state, budget %.0f — the hot path regressed", tc.name, got, tc.budget)
			}
		})
	}
}

// TestForkWriteAllocsIndependentOfSize is the cost-shape gate of the
// copy-on-write slots: with a warm free-list, a fork, its first service
// write, its first timer write, its digest and its release allocate
// nothing, at 15 nodes and at 255 — the slot copy and the forked timer set
// land in the recycled shell's spares, whatever the world's size.
func TestForkWriteAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool operations; the free-list is not warm")
	}
	for _, n := range []int{15, 255} {
		base := NewWorld(FirstPolicy, 1)
		for i := 0; i < n; i++ {
			base.AddNode(NodeID(i), &relay{id: NodeID(i), n: n})
			base.SetTimerPending(NodeID(i), "tick")
		}
		base.Digest()
		base.Freeze()
		svc := &relay{id: 3, n: n, counter: 1}
		got := testing.AllocsPerRun(100, func() {
			c := base.fork()
			c.ReplaceService(3, svc)
			c.SetTimerPending(5, "tock")
			c.Digest()
			sharedWorldPool.put(c)
		})
		t.Logf("n=%d: %.1f allocs per fork+writes+put", n, got)
		if got != 0 {
			t.Errorf("n=%d: fork, first writes and put allocate %.1f objects, want 0", n, got)
		}
	}
}
