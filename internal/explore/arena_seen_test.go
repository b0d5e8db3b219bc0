package explore

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crystalchoice/internal/sm"
)

// Tests for the zero-alloc expansion machinery: per-worker pathNode
// arenas (path.go) and the lock-free seen table (seen.go), plus the
// stateless-workload allocation floors the arena work targets.

// violProps gives every relay world a property that fires on several
// states per chain, so violation traces exercise witness promotion
// (materializing spines out of the arena) at many depths.
func violProps() []Property {
	return []Property{{
		Name: "counter-under-2",
		Check: func(w *World) bool {
			for _, id := range w.Nodes() {
				if r, ok := w.Service(id).(*relay); ok && r.counter >= 2 {
					return false
				}
			}
			return true
		},
	}}
}

// traceGoldenPath holds reports dumped from the heap-allocated trace arm
// (one garbage-collected node per step, no arenas, no recycling of trace
// nodes) at commit 8679000, the last one that carried it. The arena engine
// must keep reproducing them: arenas are pure allocation placement, so any
// divergence means a trace node was recycled while a branch still needed
// it. Regenerate with UPDATE_EXPLORE_GOLDEN=1 only when a traversal change
// is intended and understood.
//
// Regenerated once since, when the one-worker FIFO scheduler was retired
// for the deque loop: the two bfs sections moved, every other section
// (and every section's states=/maxdepth=/violations= header) is the heap
// arm's byte for byte. BFS's units now drain newest-first, so its
// violations are recorded in depth-first order, and where several
// interleavings reach one violating state the recorded witness is the
// depth-first one; chaindfs (roots still run in root order) and the
// sorted parallel set did not move. The randomwalk and guided sections
// left with those strategies, by deletion only.
const traceGoldenPath = "testdata/trace_golden.txt"

// traceGoldenParallelMark separates the sequential reports from the
// parallel violation set in the golden file.
const traceGoldenParallelMark = "== parallel/workers=4 ==\n"

// sequentialTraceDump renders the full report of every strategy, faults
// off and on, on a world whose property fires mid-chain.
func sequentialTraceDump(t *testing.T) string {
	var b strings.Builder
	for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
		for _, faults := range []int{0, 1} {
			// hops > nodes: each chain wraps the relay ring, so
			// counters reach 2 and the property fires mid-chain.
			w := fanWorld(2, 2, 6)
			x := NewExplorer(8)
			x.Strategy = strat
			x.Properties = violProps()
			x.FaultBudget = faults
			x.Objective = sumObjective()
			r := x.Explore(w)
			name := fmt.Sprintf("%s/faults=%d", strat.Name(), faults)
			if len(r.Violations) == 0 {
				t.Fatalf("%s: property never fired — the equivalence check is vacuous", name)
			}
			fmt.Fprintf(&b, "== %s ==\n", name)
			fmt.Fprintf(&b, "states=%d maxdepth=%d faults=%d panics=%d truncated=%v dropped=%d\n",
				r.StatesExplored, r.MaxDepth, r.FaultsInjected, r.Panics, r.Truncated, r.FrontierDropped)
			fmt.Fprintf(&b, "min=%v mean=%v max=%v\n", r.MinScore, r.MeanScore, r.MaxScore)
			fmt.Fprintf(&b, "violations=%d\n", len(r.Violations))
			for _, v := range r.Violations {
				fmt.Fprintf(&b, "  %s depth=%d trace=%v\n", v.Property, v.Depth, v.Trace)
			}
		}
	}
	return b.String()
}

// parallelTraceDump renders the sorted violation set of a work-stealing
// run, where arena nodes are released cross-worker (order within the
// report is interleaving-dependent, the set is not).
func parallelTraceDump(t *testing.T) string {
	w := fanWorld(4, 2, 10) // hops wrap the ring: violations at depth 9+
	x := NewExplorer(12)
	x.Workers = 4
	x.Properties = violProps()
	r := x.Explore(w)
	if len(r.Violations) == 0 {
		t.Fatal("no violations found — the equivalence check is vacuous")
	}
	out := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		out = append(out, v.Property+" @"+fmt.Sprint(v.Depth)+": "+strings.Join(v.Trace, " | "))
	}
	sort.Strings(out)
	return strings.Join(out, "\n") + "\n"
}

// readTraceGolden returns the sequential and parallel halves of the file.
func readTraceGolden(t *testing.T) (sequential, parallel string) {
	raw, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatalf("missing trace golden file: %v", err)
	}
	sequential, parallel, ok := strings.Cut(string(raw), traceGoldenParallelMark)
	if !ok {
		t.Fatalf("%s has no %q section", traceGoldenPath, traceGoldenParallelMark)
	}
	return sequential, parallel
}

// TestArenaTracesMatchHeapGoldens is the arena/heap equivalence test: for
// every strategy, faults off and on, the arena-backed run must produce a
// byte-identical report — violation traces included — to the one the heap
// arm produced (see traceGoldenPath).
//
// The dump is taken twice: the second one's runs are served recycled
// contexts (Ctx.recycle), whose arenas have handed every slot out before. A
// node the first run left referenced, or one reused while a witness still
// needed it, shows as a second dump that differs.
func TestArenaTracesMatchHeapGoldens(t *testing.T) {
	got := sequentialTraceDump(t)
	if again := sequentialTraceDump(t); again != got {
		t.Errorf("the same runs on recycled arenas report otherwise:\n--- first ---\n%s\n--- second ---\n%s", got, again)
	}
	if os.Getenv("UPDATE_EXPLORE_GOLDEN") != "" {
		all := got + traceGoldenParallelMark + parallelTraceDump(t)
		if err := os.WriteFile(traceGoldenPath, []byte(all), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("trace golden file rewritten")
	}
	if want, _ := readTraceGolden(t); got != want {
		t.Errorf("arena run diverges from the heap-arm golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestArenaTracesMatchHeapParallel repeats the equivalence on the
// work-stealing pool, where arena nodes are released cross-worker:
// the violation set must equal the heap arm's.
func TestArenaTracesMatchHeapParallel(t *testing.T) {
	_, want := readTraceGolden(t)
	for _, run := range []string{"fresh", "recycled"} {
		if got := parallelTraceDump(t); got != want {
			t.Errorf("parallel arena violations (%s arenas) diverge from the heap-arm golden:\n--- got ---\n%s\n--- want ---\n%s", run, got, want)
		}
	}
}

// TestCtxRecycledHoldsNothing: what a run leaves on the free list for the
// next one references neither the run nor anything it explored, and is a
// few kilobytes however large the run was.
func TestCtxRecycledHoldsNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		strat   Strategy
	}{{"chain", 1, ChainDFS{}}, {"bfs", 1, BFS{}}, {"bfs/workers=3", 3, BFS{}}} {
		x := NewExplorer(12)
		x.Workers, x.Strategy, x.Properties = tc.workers, tc.strat, violProps()
		ctx := newCtx(x, fanWorld(4, 2, 10), 1<<14)
		ctxPool.Put(ctx) // Explore takes it from the free list, and returns it
		r := x.Explore(ctx.root)
		if _, chain := tc.strat.(ChainDFS); len(r.Violations) == 0 || (!chain && r.StatesExplored < 4*pathChunkMax) {
			t.Fatalf("%s: %d states, %d violations: the run is too small to grow its scratch", tc.name, r.StatesExplored, len(r.Violations))
		}
		if raceEnabled {
			continue // the detector drops pool operations: ctx may not be the one that ran
		}
		if ctx.x != nil || ctx.root != nil || ctx.seen != nil || ctx.count.Load() != 0 || ctx.pending.Load() != 0 {
			t.Errorf("%s: the recycled context still carries its run", tc.name)
		}
		if len(ctx.plain) != 0 || len(ctx.deques) != 0 || len(ctx.rootBuf) != 0 || cap(ctx.rootBuf) > keepUnits {
			t.Errorf("%s: recycled seen set, deques or root buffer not emptied", tc.name)
		}
		for i := range ctx.deques[:cap(ctx.deques)] {
			if d := &ctx.deques[:cap(ctx.deques)][i]; d.ctx != nil || d.q.len() != 0 || cap(d.q.buf) > keepUnits {
				t.Errorf("%s: a recycled deque still holds units or its run", tc.name)
			}
		}
		for i, s := range ctx.succ {
			if len(s) != 0 || cap(s) > keepUnits {
				t.Errorf("%s: worker %d's successor buffer survived", tc.name, i)
			}
		}
		for i, r := range ctx.shards[:cap(ctx.shards)] {
			if r != nil {
				t.Errorf("%s: worker %d's report shard survived", tc.name, i)
			}
		}
		for _, a := range append([]*pathArena{ctx.rootArena}, ctx.arenas...) {
			if len(a.chunks) > 1 || a.used != 0 || a.free != nil {
				t.Errorf("%s: a recycled arena keeps %d chunks, %d slots out", tc.name, len(a.chunks), a.used)
			}
			for _, c := range a.chunks {
				for i := range c {
					if c[i].parent != nil || c[i].msg != nil {
						t.Fatalf("%s: recycled arena slot %d still references a trace", tc.name, i)
					}
				}
			}
		}
	}
}

// TestPooledShellsPinNothing: a dead world on the free list references no
// message, service or timer name. Enumerations zero the actions they stop
// using, so put clears only the last enumeration's; the world below makes
// the fault enumeration shorter than the message one it overwrites. Its
// pending timers make fired timers and crashes copy timer lists, which put
// reclaims as spares cleared to their full capacity.
func TestPooledShellsPinNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the detector drops pool operations")
	}
	for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
		w := NewWorld(FirstPolicy, 1)
		for i := 0; i < 2; i++ {
			w.AddNode(NodeID(i), &relay{id: NodeID(i), n: 2})
		}
		for i := 0; i < 6; i++ {
			w.InjectMessage(&sm.Msg{Src: 0, Dst: NodeID(i % 2), Kind: "ping", Body: 3})
		}
		w.SetTimerPending(0, "t")
		w.SetTimerPending(0, "u")
		w.SetTimerPending(1, "t")
		x := NewExplorer(4)
		x.Strategy, x.FaultBudget, x.MaxStates = strat, 1, 1<<12
		x.Explore(w)
		shells, lists := 0, 0
		for s := sharedWorldPool.get(); s != nil; s = sharedWorldPool.get() {
			shells++
			lists += len(s.spareTimerSets)
			for _, a := range s.actScratch[:cap(s.actScratch)] {
				if a.Msg != nil || a.Timer != "" {
					t.Fatalf("%s: a pooled shell's action scratch pins %+v", strat.Name(), a)
				}
			}
			for _, sl := range s.spareSlots[:cap(s.spareSlots)] {
				if sl.svc != nil || sl.timers != nil {
					t.Fatalf("%s: a pooled shell's spare slots pin a service or timer set", strat.Name())
				}
			}
			for _, buf := range [][]*sm.Msg{s.spareInflight, s.conseqScratch, s.scratchEnv.produced} {
				if slices.ContainsFunc(buf[:cap(buf)], func(m *sm.Msg) bool { return m != nil }) {
					t.Fatalf("%s: a pooled shell's message buffer pins a message", strat.Name())
				}
			}
			for _, list := range s.spareTimerSets {
				if len(list) != 0 || slices.ContainsFunc(list[:cap(list)], func(n string) bool { return n != "" }) {
					t.Fatalf("%s: a pooled shell's spare timer list %q is not cleared to its capacity", strat.Name(), list[:cap(list)])
				}
			}
		}
		if shells == 0 || lists == 0 {
			t.Fatalf("%s: the run left %d shells, carrying %d spare timer lists, on the free list", strat.Name(), shells, lists)
		}
	}
}

// TestLockFreeSeenExactOnceWithinTable: within one table epoch (sized so
// growth never triggers), concurrent visits of the same digest must
// return "new" exactly once — the membership guarantee the parallel
// dedup counts rely on.
func TestLockFreeSeenExactOnceWithinTable(t *testing.T) {
	const digests, workers = 4096, 8
	s := newLockFreeSeen(4 * digests)
	firsts := make([]atomic.Int32, digests)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < digests; i++ {
				d := sm.Mix64(uint64(i) + 1)
				if !s.visit(d) {
					firsts[i].Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range firsts {
		if n := firsts[i].Load(); n != 1 {
			t.Fatalf("digest %d claimed new %d times, want exactly 1", i, n)
		}
	}
}

// TestLockFreeSeenGrowth starts from a deliberately tiny table and
// inserts far past it: every digest must remain a member after the
// epoch handoffs, and re-visits must report seen.
func TestLockFreeSeenGrowth(t *testing.T) {
	s := &lockFreeSeen{}
	s.cur.Store(newSeenTable(8, nil))
	const n = 10000
	for i := 0; i < n; i++ {
		d := sm.Mix64(uint64(i) + 1)
		if s.visit(d) {
			t.Fatalf("fresh digest %d reported already seen", i)
		}
	}
	for i := 0; i < n; i++ {
		d := sm.Mix64(uint64(i) + 1)
		if !s.contains(d) {
			t.Fatalf("digest %d lost across growth", i)
		}
		if !s.visit(d) {
			t.Fatalf("digest %d re-visit reported new", i)
		}
	}
	// Keys may remain spread across the retired epoch chain, so only the
	// fact of growth is asserted, not that the current epoch holds all.
	if got := int(s.cur.Load().mask) + 1; got <= 8 {
		t.Fatalf("table never grew: still %d slots after %d inserts", got, n)
	}
}

// TestLockFreeSeenConcurrentGrowth hammers a tiny table from many
// goroutines so growth races with inserts (run under -race). Across
// epoch handoffs a visit may rarely double-report "new" — a benign
// re-exploration — but membership must never be lost and zero digests
// may be dropped.
func TestLockFreeSeenConcurrentGrowth(t *testing.T) {
	s := &lockFreeSeen{}
	s.cur.Store(newSeenTable(8, nil))
	const perWorker, workers = 2000, 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.visit(sm.Mix64(uint64(g*perWorker+i) + 1))
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < workers*perWorker; i++ {
		d := sm.Mix64(uint64(i) + 1)
		if !s.contains(d) {
			t.Fatalf("digest %d lost during concurrent growth", i)
		}
	}
}

// TestLockFreeSeenZeroDigest: digest 0 is the table's empty-slot
// sentinel; seenKey must remap it so the state hashing to 0 is still
// deduplicated correctly.
func TestLockFreeSeenZeroDigest(t *testing.T) {
	s := newLockFreeSeen(64)
	if s.visit(0) {
		t.Fatal("zero digest reported seen before first visit")
	}
	if !s.visit(0) {
		t.Fatal("zero digest not remembered")
	}
}

// noopSvc is a fully stateless service: no state, no sends, Clone
// returns the receiver. Worlds of noopSvc nodes measure the engine's
// pure bookkeeping cost — every allocation on such a run is the
// explorer's own.
type noopSvc struct{ id NodeID }

func (s *noopSvc) Init(env sm.Env)                 {}
func (s *noopSvc) OnMessage(env sm.Env, m *sm.Msg) {}
func (s *noopSvc) OnTimer(env sm.Env, name string) {}
func (s *noopSvc) Clone() sm.Service               { return s }
func (s *noopSvc) Digest() uint64                  { return uint64(s.id) + 1 }

// hopRelay is a stateless relay: the hop count lives in the message, the
// service carries nothing and self-clones. Chains of hopRelay measure
// the chain engine's marginal cost per state — the single handler Send
// is the only workload allocation.
type hopRelay struct{ id NodeID }

func (s *hopRelay) Init(env sm.Env) {}
func (s *hopRelay) OnMessage(env sm.Env, m *sm.Msg) {
	if hops := m.Body.(int); hops > 0 {
		env.Send(s.id+1, "hop", hops-1, 0)
	}
}
func (s *hopRelay) OnTimer(env sm.Env, name string) {}
func (s *hopRelay) Clone() sm.Service               { return s }
func (s *hopRelay) Digest() uint64                  { return uint64(s.id) + 1 }

// TestZeroAllocStatelessPaths pins the engine's bookkeeping floor on
// stateless workloads, where the arena + seal-reclamation + scratch work
// should leave (nearly) nothing: the chain relay path pays its one
// workload allocation (the handler's sm.Msg) plus fractional pool-warmup
// residue, and the capped-frontier BFS path stays within a few
// allocations while the free-list recirculates shells.
func TestZeroAllocStatelessPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	t.Run("chain-stateless-relay", func(t *testing.T) {
		// Several disjoint chains amortize the per-run fixed cost
		// (explorer, context, seen map, root arena chunk) the way
		// allocWorld does, so the quotient approximates the marginal
		// per-state cost.
		const chains, hops = 8, 48
		w := NewWorld(FirstPolicy, 1)
		for c := 0; c < chains; c++ {
			base := NodeID(c * (hops + 1))
			for i := 0; i <= hops; i++ {
				w.AddNode(base+NodeID(i), &hopRelay{id: base + NodeID(i)})
			}
			w.InjectMessage(&sm.Msg{Src: base, Dst: base, Kind: "hop", Body: hops})
		}
		got := allocsPerState(t, w, func() *Explorer {
			return NewExplorer(hops + 1)
		})
		t.Logf("chain stateless relay: %.2f allocs/state (1 is the handler's Msg)", got)
		if got > 2.0 {
			t.Errorf("stateless chain path allocates %.2f per state, budget 2.0 — bookkeeping crept back in", got)
		}
	})
	t.Run("bfs-noop", func(t *testing.T) {
		w := NewWorld(FirstPolicy, 1)
		for i := 0; i < 6; i++ {
			w.AddNode(NodeID(i), &noopSvc{id: NodeID(i)})
		}
		for i := 0; i < 6; i++ {
			w.InjectMessage(&sm.Msg{Src: NodeID(i), Dst: NodeID(i), Kind: "m", Body: i + 256})
		}
		got := allocsPerState(t, w, func() *Explorer {
			x := NewExplorer(6)
			x.Strategy = BFS{}
			x.MaxFrontier = 64 // keep shells recirculating through the free-list
			return x
		})
		t.Logf("bfs noop: %.2f allocs/state", got)
		if got > 2.0 {
			t.Errorf("noop BFS path allocates %.2f per state, budget 2.0 — bookkeeping crept back in", got)
		}
	})
}
