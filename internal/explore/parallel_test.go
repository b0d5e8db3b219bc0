package explore

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"crystalchoice/internal/sm"
)

// fanWorld seeds n disjoint ping chains: message i starts a chain confined
// to nodes [i*width, (i+1)*width), so chains never collide in the digest
// set and sequential/parallel runs must agree exactly.
func fanWorld(chains, width, hops int) *World {
	w := NewWorld(FirstPolicy, 1)
	n := chains * width
	for i := 0; i < n; i++ {
		w.AddNode(NodeID(i), &relay{id: NodeID(i), n: n})
	}
	for c := 0; c < chains; c++ {
		w.InjectMessage(&sm.Msg{Src: NodeID(c * width), Dst: NodeID(c * width), Kind: "ping", Body: hops})
	}
	return w
}

func sumObjective() Objective {
	return ObjectiveFunc{ObjectiveName: "sum", Fn: func(w *World) float64 {
		total := 0.0
		for _, id := range w.Nodes() {
			total += float64(w.Service(id).(*relay).counter)
		}
		return total
	}}
}

// stripElapsed zeroes the report's timing-dependent stamps — Elapsed,
// the autoscaler's worker high-water mark, and the steal-miss count —
// so determinism comparisons with reflect.DeepEqual ignore them.
func stripElapsed(r *Report) *Report {
	r.Elapsed = 0
	r.WorkerHighWater = 0
	r.StealMisses = 0
	return r
}

// TestSchedulerMatchesSequential: on a single-chain world every state
// has exactly one successor, so no pool size can reorder anything and
// each strategy — the ChainDFS pool capped to its one root, BFS on
// stealing deques — must yield a byte-identical report to the inline
// one-worker run.
func TestSchedulerMatchesSequential(t *testing.T) {
	for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
		mk := func(workers int) *Report {
			x := NewExplorer(5)
			x.Objective = sumObjective()
			x.Strategy = strat
			x.Workers = workers
			return stripElapsed(x.Explore(relayWorld(4, 3)))
		}
		seq, sched := mk(1), mk(4)
		if !reflect.DeepEqual(seq, sched) {
			t.Errorf("%s: scheduler output diverges from sequential baseline:\nseq   %+v\nsched %+v",
				strat.Name(), seq, sched)
		}
	}
}

// TestCappedPoolAllocatesLikeSequential: a ChainDFS pool is capped to
// its root count, so Workers: 4 over a one-root frontier runs one
// worker inline — and must be set up like it, with the plain map as
// its seen set rather than a lock-free table sized for a pool that never
// starts (32 KB at the smallest, per lookahead).
func TestCappedPoolAllocatesLikeSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool operations; allocation volumes are meaningless")
	}
	bytesPerRun := func(workers int) uint64 {
		run := func() {
			x := NewExplorer(5)
			x.MaxStates = 64
			x.Workers = workers
			x.Explore(relayWorld(4, 3))
		}
		run() // warm the shell free-list
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	seq, capped := bytesPerRun(1), bytesPerRun(4)
	t.Logf("Workers=1 %d B/run, Workers=4 (capped to one root) %d B/run", seq, capped)
	// A quarter of slack absorbs a garbage collection emptying the
	// free-list mid-measurement; the table this guards against is 10x.
	if capped > seq+seq/4 {
		t.Errorf("capped pool allocates %d B per run, sequential %d B: seen set sized for workers that never ran", capped, seq)
	}
}

// TestParallelMatchesSequentialOnDisjointChains: when chains share no
// states, digest pruning cannot depend on worker interleaving, so a
// parallel run must reproduce the sequential counts and score extrema
// exactly (mean is summed in worker order, hence compared approximately).
func TestParallelMatchesSequentialOnDisjointChains(t *testing.T) {
	run := func(workers int) *Report {
		w := fanWorld(4, 4, 3)
		x := NewExplorer(5)
		x.Objective = sumObjective()
		x.Workers = workers
		return x.Explore(w)
	}
	seq := run(1)
	par := run(4)
	if par.StatesExplored != seq.StatesExplored || par.MaxDepth != seq.MaxDepth ||
		par.MinScore != seq.MinScore || par.MaxScore != seq.MaxScore ||
		par.Truncated != seq.Truncated {
		t.Fatalf("parallel diverged: seq %+v par %+v", seq, par)
	}
	if math.Abs(par.MeanScore-seq.MeanScore) > 1e-9 {
		t.Fatalf("mean diverged: %v vs %v", seq.MeanScore, par.MeanScore)
	}
}

// TestParallelFindsViolations runs a many-chain world across the full
// worker pool under -race and checks the predicted violation survives.
func TestParallelFindsViolations(t *testing.T) {
	w := fanWorld(8, 3, 2)
	x := NewExplorer(4)
	x.Workers = runtime.GOMAXPROCS(0)
	x.Properties = []Property{{
		Name: "node1-never-pinged",
		Check: func(w *World) bool {
			return w.Service(1).(*relay).counter == 0
		},
	}}
	r := x.Explore(w)
	if r.Safe() {
		t.Fatal("violation missed by parallel exploration")
	}
	if r.StatesExplored == 0 || r.MaxDepth == 0 {
		t.Fatalf("suspicious report: %+v", r)
	}
}

// TestParallelTruncation: a parallel run over budget must report
// truncation and overshoot the budget by at most one state per worker.
func TestParallelTruncation(t *testing.T) {
	w := fanWorld(8, 2, 50)
	x := NewExplorer(100)
	x.MaxStates = 10
	x.Workers = 4
	r := x.Explore(w)
	if !r.Truncated {
		t.Fatal("budget exhaustion not reported")
	}
	if r.StatesExplored > 10+4 {
		t.Fatalf("explored %d states with budget 10 and 4 workers", r.StatesExplored)
	}
}

// TestBFSReachesInterleavings: a property violated only after two
// causally unrelated deliveries is invisible to ChainDFS (each chain
// follows one message's consequences) but reachable by BFS.
func TestBFSReachesInterleavings(t *testing.T) {
	mk := func() *World {
		w := NewWorld(FirstPolicy, 1)
		for i := 0; i < 2; i++ {
			w.AddNode(NodeID(i), &relay{id: NodeID(i), n: 2})
		}
		w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: "ping", Body: 0})
		w.InjectMessage(&sm.Msg{Src: 1, Dst: 1, Kind: "ping", Body: 0})
		return w
	}
	both := Property{Name: "not-both-pinged", Check: func(w *World) bool {
		return w.Service(0).(*relay).counter == 0 || w.Service(1).(*relay).counter == 0
	}}

	x := NewExplorer(4)
	x.Properties = []Property{both}
	if r := x.Explore(mk()); !r.Safe() {
		t.Fatal("ChainDFS unexpectedly interleaved unrelated chains")
	}

	x = NewExplorer(4)
	x.Properties = []Property{both}
	x.Strategy = BFS{}
	r := x.Explore(mk())
	if r.Safe() {
		t.Fatal("BFS missed the interleaved state")
	}
	if v := r.Violations[0]; v.Depth != 2 || len(v.Trace) != 2 {
		t.Fatalf("violation = %+v, want depth 2 via a 2-step interleaving", v)
	}
}

// TestBFSDeduplicates: permutations of independent deliveries converge on
// the same state; the digest set must prune the duplicate frontier.
func TestBFSDeduplicates(t *testing.T) {
	w := fanWorld(3, 1, 0) // three one-shot pings, no relaying
	x := NewExplorer(3)
	x.Strategy = BFS{}
	r := x.Explore(w)
	// States: root + 3 singles + 6 pairs + dedup'd triples. Without
	// dedup the last level alone would add 6 states; with it, successors
	// of the 3 distinct pair-states add at most 3.
	if r.StatesExplored > 1+3+6+3 {
		t.Fatalf("BFS explored %d states; digest dedup not effective", r.StatesExplored)
	}
	if r.MaxDepth != 3 {
		t.Fatalf("MaxDepth = %d, want 3", r.MaxDepth)
	}
}

// TestDropBranchesDeepLoss: datagram relays must grow loss branches at
// every chain depth, not just for the initial send.
func TestDropBranchesDeepLoss(t *testing.T) {
	w := NewWorld(FirstPolicy, 1)
	for i := 0; i < 4; i++ {
		w.AddNode(NodeID(i), &dgramRelay{id: NodeID(i), n: 4})
	}
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: "ping", Body: 3, Unreliable: true})
	x := NewExplorer(6)
	x.DropBranches = true
	x.Properties = []Property{{
		Name: "all-delivered",
		Check: func(w *World) bool {
			if len(w.Inflight) > 0 {
				return true // chain still running
			}
			total := 0
			for _, id := range w.Nodes() {
				total += w.Service(id).(*dgramRelay).counter
			}
			return total == 4
		},
	}}
	r := x.Explore(w)
	depths := map[int]bool{}
	for _, v := range r.Violations {
		last := v.Trace[len(v.Trace)-1]
		if strings.HasPrefix(last, "drop") {
			depths[v.Depth] = true
		}
	}
	for want := 1; want <= 3; want++ {
		if !depths[want] {
			t.Fatalf("no loss-branch violation at depth %d (got depths %v, violations %d)", want, depths, len(r.Violations))
		}
	}
}

// dgramRelay relays pings as unreliable datagrams so every hop has a loss
// branch.
type dgramRelay struct {
	id      NodeID
	n       int
	counter int
}

func (r *dgramRelay) Init(env sm.Env) {}
func (r *dgramRelay) OnMessage(env sm.Env, m *sm.Msg) {
	if m.Kind != "ping" {
		return
	}
	r.counter++
	hops := m.Body.(int)
	if hops > 0 {
		env.SendDatagram(NodeID((int(r.id)+1)%r.n), "ping", hops-1, 0)
	}
}
func (r *dgramRelay) OnTimer(env sm.Env, name string) {}
func (r *dgramRelay) Clone() sm.Service               { c := *r; return &c }
func (r *dgramRelay) Digest() uint64 {
	return sm.NewHasher().WriteNode(r.id).WriteInt(int64(r.counter)).Sum()
}

// genericCounter counts acks coming back from the under-specified side.
type genericCounter struct {
	id   NodeID
	acks int
}

func (g *genericCounter) Init(env sm.Env) {}
func (g *genericCounter) OnMessage(env sm.Env, m *sm.Msg) {
	if m.Kind == "ack" {
		g.acks++
	}
}
func (g *genericCounter) OnTimer(env sm.Env, name string) {}
func (g *genericCounter) Clone() sm.Service               { c := *g; return &c }
func (g *genericCounter) Digest() uint64 {
	return sm.NewHasher().WriteNode(g.id).WriteInt(int64(g.acks)).Sum()
}

// TestGenericReactionFanOut: a message to an unmodeled node must branch
// over silence plus every reaction the generic model enumerates, and the
// reaction messages must feed back into the chain.
func TestGenericReactionFanOut(t *testing.T) {
	w := NewWorld(FirstPolicy, 1)
	w.AddNode(0, &genericCounter{id: 0})
	w.Generic = GenericFunc(func(m *sm.Msg) [][]*sm.Msg {
		if m.Kind != "req" {
			return nil
		}
		return [][]*sm.Msg{
			{{Src: m.Dst, Dst: m.Src, Kind: "ack"}},
			{{Src: m.Dst, Dst: m.Src, Kind: "ack"}, {Src: m.Dst, Dst: m.Src, Kind: "ack"}},
			{{Src: m.Dst, Dst: m.Src, Kind: "nak"}},
		}
	})
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 9, Kind: "req"}) // node 9 unmodeled
	x := NewExplorer(4)
	pendingAcks := map[int]bool{}
	x.Objective = ObjectiveFunc{ObjectiveName: "acks", Fn: func(w *World) float64 {
		pendingAcks[len(w.Inflight)] = true
		return float64(w.Service(0).(*genericCounter).acks)
	}}
	r := x.Explore(w)
	// Every reaction delivery lands one ack at most (each chain follows
	// one consequence message), so the branches are distinguished by
	// their residual in-flight sets: the double-ack branch leaves one ack
	// queued while the other is delivered.
	if r.MaxScore != 1 {
		t.Fatalf("MaxScore = %v, want 1 (an ack delivered)", r.MaxScore)
	}
	if !pendingAcks[1] {
		t.Fatalf("double-ack reaction branch never executed (inflight sizes %v)", pendingAcks)
	}
	// Silent branch must be explored too: some state has zero acks.
	if r.MinScore != 0 {
		t.Fatalf("MinScore = %v, want 0 (silent branch)", r.MinScore)
	}
	// Root + silent + ack(#0) + 2×ack(#1) + nak(#2) = 6 checked states.
	if r.StatesExplored != 6 {
		t.Fatalf("fan-out = %d states, want 6", r.StatesExplored)
	}
}

// TestCOWCloneSharesUntilWrite: a fork must not deep-copy services up
// front, and writes on either side must not leak across.
func TestCOWCloneSharesUntilWrite(t *testing.T) {
	w := relayWorld(4, 2)
	w.SetTimerPending(2, "t")
	c := w.Clone()
	for _, id := range w.Nodes() {
		if w.Service(id) != c.Service(id) {
			t.Fatalf("fork deep-copied service %v eagerly", id)
		}
	}
	// Write on the fork: the parent must keep its view.
	c.DeliverMessage(0)
	c.FireTimer(2, "t")
	if w.Service(0).(*relay).counter != 0 || len(w.Inflight) != 1 || !w.TimerPending(2, "t") {
		t.Fatal("fork write leaked into parent")
	}
	// Write on the parent: the fork must keep its (evolved) view.
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 1, Kind: "ping", Body: 0})
	if len(w.Inflight) != 2 {
		t.Fatalf("parent inflight = %d, want 2", len(w.Inflight))
	}
	digestBefore := c.Digest()
	w.DeliverMessage(1)
	if c.Digest() != digestBefore {
		t.Fatal("parent write leaked into fork")
	}
}

// TestLockedPolicyParallel exercises a stateful policy under the full
// worker pool; -race validates the Locked wrapper.
func TestLockedPolicyParallel(t *testing.T) {
	w := fanWorld(6, 2, 3)
	w.Policy = Locked(ForceFirst(0, "nope", 0, FirstPolicy))
	x := NewExplorer(4)
	x.Workers = runtime.GOMAXPROCS(0)
	if r := x.Explore(w); r.StatesExplored == 0 {
		t.Fatal("no states explored")
	}
}

func BenchmarkExploreParallel(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := fanWorld(8, 4, 12)
				x := NewExplorer(8)
				x.MaxStates = 1 << 20
				x.Workers = workers
				x.Explore(w)
			}
		})
	}
}
