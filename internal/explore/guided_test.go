package explore

import (
	"testing"

	"crystalchoice/internal/sm"
)

// chainNode forwards "ping" down a fixed chain, one count per hop.
type chainNode struct {
	id    NodeID
	next  NodeID // -1 terminates the chain
	count int
}

func (c *chainNode) Init(env sm.Env) {}
func (c *chainNode) OnMessage(env sm.Env, m *sm.Msg) {
	if m.Kind != "ping" {
		return
	}
	c.count++
	if c.next >= 0 {
		env.Send(c.next, "ping", nil, 0)
	}
}
func (c *chainNode) OnTimer(env sm.Env, name string) {}
func (c *chainNode) Clone() sm.Service               { cp := *c; return &cp }
func (c *chainNode) Digest() uint64 {
	return sm.NewHasher().WriteNode(c.id).WriteInt(int64(c.count)).Sum()
}

// biasedWorld has two disjoint four-node chains: the "good" chain
// (nodes 0-3) raises the objective per hop, the "bad" chain (nodes 4-7)
// lowers it and violates the property three hops in. Both chains start
// with one injected ping, the good one first.
func biasedWorld() *World {
	w := NewWorld(FirstPolicy, 1)
	for i := 0; i < 8; i++ {
		next := NodeID(i + 1)
		if i == 3 || i == 7 {
			next = -1
		}
		w.AddNode(NodeID(i), &chainNode{id: NodeID(i), next: next})
	}
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: "ping"})
	w.InjectMessage(&sm.Msg{Src: 4, Dst: 4, Kind: "ping"})
	return w
}

func biasedObjective() Objective {
	return ObjectiveFunc{ObjectiveName: "bias", Fn: func(w *World) float64 {
		score := 0.0
		for _, id := range w.Nodes() {
			n := w.Services[id].(*chainNode)
			if id < 4 {
				score += float64(n.count)
			} else {
				score -= float64(n.count)
			}
		}
		return score
	}}
}

func badChainProperty() Property {
	return Property{Name: "bad-chain-short", Check: func(w *World) bool {
		total := 0
		for id := NodeID(4); id < 8; id++ {
			total += w.Services[id].(*chainNode).count
		}
		return total < 3
	}}
}

// TestGuidedSpendsBudgetOnSuspectBranch: under a budget too small to
// cover both chains, the guided search must descend the low-objective
// (bad) chain to its depth-3 violation, while the budget-uniform
// traversals (ChainDFS exhausts the good chain first, BFS alternates)
// run out of states before reaching it. The budget of 7 leaves best-first
// one wasted expansion (a good-chain step interleaved into the suspect
// world ties with the bad continuation and is inserted first).
func TestGuidedSpendsBudgetOnSuspectBranch(t *testing.T) {
	run := func(strat Strategy) *Report {
		w := biasedWorld()
		x := NewExplorer(5)
		x.MaxStates = 7
		x.Strategy = strat
		x.Objective = biasedObjective()
		x.Properties = []Property{badChainProperty()}
		return x.Explore(w)
	}
	if r := run(Guided{}); r.Safe() {
		t.Fatalf("guided search missed the violation within budget: %+v", r)
	}
	if r := run(ChainDFS{}); !r.Safe() {
		t.Fatalf("ChainDFS unexpectedly reached the violation under the same budget: %+v", r.Violations)
	}
	if r := run(BFS{}); !r.Safe() {
		t.Fatalf("BFS unexpectedly reached the violation under the same budget: %+v", r.Violations)
	}
	// With an adequate budget every strategy sees it.
	w := biasedWorld()
	x := NewExplorer(5)
	x.Strategy = BFS{}
	x.Properties = []Property{badChainProperty()}
	if r := x.Explore(w); r.Safe() {
		t.Fatal("violation unreachable even without budget pressure")
	}
}

// TestGuidedFaultNovelty: with no objective, the fault-novelty bonus must
// put a first fault transition ahead of plain deliveries at equal depth.
func TestGuidedFaultNovelty(t *testing.T) {
	w := biasedWorld()
	w.Initial = func(id NodeID) sm.Service { return &chainNode{id: id, next: -1} }
	x := NewExplorer(3)
	x.FaultBudget = 1
	x.Strategy = Guided{}
	x.MaxStates = 4 // root + two roots popped; the fault root must be among them
	x.Properties = []Property{{Name: "never", Check: func(*World) bool { return false }}}
	r := x.Explore(w)
	if r.FaultsInjected == 0 {
		t.Fatalf("guided search never prioritized a fault transition: %+v", r)
	}
}

// TestGuidedParallelFindsViolation runs the best-first frontier across a
// worker pool (shared locked heap) under -race.
func TestGuidedParallelFindsViolation(t *testing.T) {
	w := biasedWorld()
	x := NewExplorer(5)
	x.Workers = 4
	x.Strategy = Guided{}
	x.Objective = biasedObjective()
	x.Properties = []Property{badChainProperty()}
	r := x.Explore(w)
	if r.Safe() {
		t.Fatalf("parallel guided run missed the violation: %+v", r)
	}
	if r.StatesExplored == 0 {
		t.Fatal("no states explored")
	}
}

// TestParseStrategyGuided wires the new name through the parser.
func TestParseStrategyGuided(t *testing.T) {
	for _, name := range []string{"guided", "bestfirst"} {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", name, err)
		}
		if s.Name() != "guided" || !bestFirst(s) {
			t.Fatalf("ParseStrategy(%q) = %v (best-first %v)", name, s.Name(), bestFirst(s))
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if s, err := ParseStrategy(""); err != nil || s.Name() != "chaindfs" {
		t.Fatalf("empty strategy must default to chaindfs, got %v, %v", s, err)
	}
}

// TestGuidedSiblingTieBreakIsContentDriven: sibling units used to tie
// exactly (same base, same depth) and fall back to heap insertion order,
// which always preferred the lowest message index. The tie-break epsilon
// must (a) separate siblings targeting different destination states,
// (b) stay far below one depth step so real priorities remain decisive,
// and (c) be a pure function of content — identical across runs.
func TestGuidedSiblingTieBreakIsContentDriven(t *testing.T) {
	mkUnits := func() []Unit {
		w := biasedWorld()
		x := NewExplorer(5)
		x.Strategy = Guided{}
		ctx := newCtx(x, w, 64)
		w.Digest() // prime, as Explore does
		w.Freeze()
		return Guided{}.Roots(x, ctx, w)
	}
	units := mkUnits()
	if len(units) != 2 {
		t.Fatalf("expected 2 root units, got %d", len(units))
	}
	if units[0].Priority == units[1].Priority {
		t.Fatalf("siblings still tie exactly (%v): tie-break not applied", units[0].Priority)
	}
	diff := units[0].Priority - units[1].Priority
	if diff < 0 {
		diff = -diff
	}
	if diff >= 1e-6 {
		t.Fatalf("tie-break epsilon %v is large enough to override real priorities", diff)
	}
	again := mkUnits()
	for i := range units {
		if units[i].Priority != again[i].Priority {
			t.Fatalf("tie-break not deterministic: %v vs %v", units[i].Priority, again[i].Priority)
		}
	}
}
