package explore

import (
	"reflect"
	"testing"

	"crystalchoice/internal/sm"
)

// raggedWorld seeds disjoint ping chains of sharply different lengths
// (5, 15, 25, ... hops), so under a parallel run the short chains drain
// early and leave their workers idle — exactly the shape the autoscaler
// must shrink through without stranding the long chains' work.
func raggedWorld(chains, width int) *World {
	w := NewWorld(FirstPolicy, 1)
	n := chains * width
	for i := 0; i < n; i++ {
		w.AddNode(NodeID(i), &relay{id: NodeID(i), n: n})
	}
	for c := 0; c < chains; c++ {
		w.InjectMessage(&sm.Msg{Src: NodeID(c * width), Dst: NodeID(c * width), Kind: "ping", Body: 5 + 10*c})
	}
	return w
}

// TestOneWorkerSpendsExactBudget pins, inside tier-1, the gate the
// benchmark's traced mc_offline rep applies to its one-worker exploration
// (benchmark/trace.go exploreSeq): a truncated Workers: 1 fan-out run
// explores exactly MaxStates states — the inline loop checks the budget
// before every expansion and a fan-out expansion checks one state — and,
// draining newest-first, it reaches the depth bound instead of spending
// the budget on the first levels. For every strategy two such runs are
// identical, timing stamps aside.
func TestOneWorkerSpendsExactBudget(t *testing.T) {
	const depth, budget = 10, 500
	for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
		run := func() *Report {
			x := NewExplorer(depth)
			x.MaxStates = budget
			x.Strategy = strat
			x.Workers = 1
			x.Objective = sumObjective()
			return stripElapsed(x.Explore(fanWorld(4, 2, 12)))
		}
		r := run()
		if !reflect.DeepEqual(r, run()) {
			t.Errorf("%s: two Workers: 1 runs differ", strat.Name())
		}
		if _, fanOut := strat.(BFS); !fanOut {
			continue
		}
		if !r.Truncated || r.StatesExplored != budget {
			t.Errorf("%s: explored %d states (truncated=%v), want exactly the budget %d",
				strat.Name(), r.StatesExplored, r.Truncated, budget)
		}
		if r.MaxDepth != depth {
			t.Errorf("%s: reached depth %d of %d inside the budget", strat.Name(), r.MaxDepth, depth)
		}
	}
}

// TestPoolSizeReportIdentical pins the autoscaler's exactly-once
// contract: on a schedule-independent workload the report must be
// byte-identical (timing stamps aside) at every pool size — the inline
// one-worker loop, and pools whose surplus workers park and unpark
// mid-run. Resizing may change who expands a unit, never whether or how
// often it is expanded.
func TestPoolSizeReportIdentical(t *testing.T) {
	run := func(workers int) *Report {
		x := NewExplorer(40)
		x.MaxStates = 4096
		x.Workers = workers
		return stripElapsed(x.Explore(raggedWorld(6, 2)))
	}
	one := run(1)
	for _, workers := range []int{4, 8} {
		if pool := run(workers); !reflect.DeepEqual(one, pool) {
			t.Errorf("workers=%d: pooled report diverges from the one-worker run:\none  %+v\npool %+v",
				workers, one, pool)
		}
	}
}

// TestPoolGrowsMidRun drives the grow path: an eight-worker BFS pool
// starts at the root frontier's width (4 chains), and the fanning
// frontier must keep the target above one mid-run — visible as the
// worker high-water mark — while still exploring exactly the one-worker
// run's state set at every pool size.
func TestPoolGrowsMidRun(t *testing.T) {
	run := func(workers int) *Report {
		x := NewExplorer(30)
		x.MaxStates = 1 << 14
		x.Strategy = BFS{}
		x.Workers = workers
		return x.Explore(fanWorld(4, 2, 6))
	}
	one := run(1)
	for _, workers := range []int{4, 8} {
		pool := run(workers)
		if pool.StatesExplored != one.StatesExplored {
			t.Fatalf("workers=%d BFS explored %d states, one worker %d",
				workers, pool.StatesExplored, one.StatesExplored)
		}
		if pool.Truncated != one.Truncated {
			t.Fatalf("workers=%d Truncated diverged: pool %v, one worker %v", workers, pool.Truncated, one.Truncated)
		}
		if pool.WorkerHighWater <= 1 {
			t.Fatalf("workers=%d WorkerHighWater = %d; the fanning frontier never grew the pool",
				workers, pool.WorkerHighWater)
		}
		if pool.WorkerHighWater > workers {
			t.Fatalf("WorkerHighWater = %d exceeds the Workers ceiling %d", pool.WorkerHighWater, workers)
		}
	}
}

// TestWorkerHighWaterStamps checks the observability contract: the
// high-water mark is stamped from the pool that actually ran — one for a
// one-worker run and for a ChainDFS pool capped to a single root, never
// above the root count for a capped pool, never above Workers.
func TestWorkerHighWaterStamps(t *testing.T) {
	stamp := func(workers int, strat Strategy, w *World) int {
		x := NewExplorer(20)
		x.Workers = workers
		x.Strategy = strat
		r := x.Explore(w)
		if r.StealMisses < 0 {
			t.Fatalf("StealMisses = %d", r.StealMisses)
		}
		return r.WorkerHighWater
	}
	if hw := stamp(1, nil, fanWorld(3, 2, 4)); hw != 1 {
		t.Fatalf("one-worker WorkerHighWater = %d, want 1", hw)
	}
	// Workers: 4 over one root runs one worker and must say so.
	if hw := stamp(4, nil, relayWorld(4, 3)); hw != 1 {
		t.Fatalf("ChainDFS pool capped to one root: WorkerHighWater = %d, want 1", hw)
	}
	if hw := stamp(4, nil, fanWorld(3, 2, 4)); hw < 1 || hw > 3 {
		t.Fatalf("ChainDFS pool capped to three roots: WorkerHighWater = %d, want within [1, 3]", hw)
	}
	if hw := stamp(4, BFS{}, fanWorld(3, 2, 4)); hw < 1 || hw > 4 {
		t.Fatalf("BFS pool WorkerHighWater = %d, want within [1, 4]", hw)
	}
}

func BenchmarkRaggedPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := NewExplorer(40)
		x.MaxStates = 4096
		x.Workers = 8
		x.Explore(raggedWorld(6, 2))
	}
}
