// Dedup-premise audit. A fault-free chain delivers one message at every
// step and consumes it, so it does not come back to a state it expanded
// before within its depth bound, and the engine keeps no seen set for one
// (DESIGN.md §2.4.4). This file holds that premise to real runs: a
// property records the full digest of every state a run checks, and the
// trail a fault-free chain leaves must be the one it leaves with a seen
// set.
package crystalchoice

import (
	"slices"
	"testing"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// revisitAudit records the DigestFull of every state the runs it watches
// check, and counts the states a run checks after its start world that
// the same run already checked after its start world: the visits a seen
// set would find there, which never holds the start world itself.
type revisitAudit struct {
	seen               map[uint64]bool
	trail              []uint64
	runs, states, dups int
	// atRoot says the next state checked is a run's start world.
	atRoot bool
	// roots, when capturing, collects a copy of every live run's start
	// world (see property).
	roots   []*explore.World
	capture bool
}

func newRevisitAudit() *revisitAudit { return &revisitAudit{seen: map[uint64]bool{}} }

// begin starts a run.
func (a *revisitAudit) begin() {
	clear(a.seen)
	a.runs++
	a.atRoot = true
}

// property is the recording property. With liveRoots it also finds where
// the runtime's runs begin: every live lookahead root carries its node's
// lookahead seed, a counter (core's buildLookahead), while every fork
// draws a 64-bit mixed one, so a checked world with a seed below 2^32 is
// the root of a new run — the first state every run checks.
func (a *revisitAudit) property(liveRoots bool) explore.Property {
	return explore.Property{Name: "audit.revisit", Check: func(w *explore.World) bool {
		if liveRoots && uint64(w.Seed) < 1<<32 {
			a.begin()
			if a.capture {
				a.roots = append(a.roots, copyWorld(w))
			}
		}
		d := w.DigestFull()
		a.trail = append(a.trail, d)
		a.states++
		if a.atRoot {
			a.atRoot = false
			return true
		}
		if a.seen[d] {
			a.dups++
		}
		a.seen[d] = true
		return true
	}}
}

// copyWorld rebuilds w from fresh clones of its services, its pending
// timers, down flags, partitions and in-flight messages (immutable, so
// shared), under FirstPolicy. It reads w and writes nothing of it.
func copyWorld(w *explore.World) *explore.World {
	c := explore.NewWorld(explore.FirstPolicy, w.Seed)
	c.Now, c.Generic = w.Now, w.Generic
	nodes := w.Nodes()
	for _, id := range nodes {
		c.AddNode(id, w.Service(id).Clone())
		c.SetDown(id, w.IsDown(id))
		for _, name := range w.PendingTimers(id) {
			c.SetTimerPending(id, name)
		}
	}
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if !w.Reachable(a, b) {
				c.PartitionPair(a, b)
			}
		}
	}
	for _, m := range w.Inflight {
		c.InjectMessage(m)
	}
	return c
}

// seenChain is ChainDFS under another name. The engine keeps a seen set
// for every strategy but ChainDFS itself, so this runs the same chains
// with one: the reference a fault-free chain is held to.
type seenChain struct{ explore.ChainDFS }

// audited explores w with a fault-free explorer that tune configures,
// under strat, and returns the audit of the run.
func audited(t *testing.T, w *explore.World, strat explore.Strategy, tune func(x *explore.Explorer)) *revisitAudit {
	a := newRevisitAudit()
	x := explore.NewExplorer(0)
	tune(x)
	x.Strategy = strat
	x.Properties = append([]explore.Property{a.property(false)}, x.Properties...)
	a.begin()
	if r := x.Explore(w); r.StatesExplored != a.states {
		t.Fatalf("%s: the run explored %d states, the audit saw %d", strat.Name(), r.StatesExplored, a.states)
	}
	return a
}

// TestFaultFreeChainsNeverRevisit holds the premise behind the engine
// keeping no seen set for a fault-free chain: with one, such a run would
// prune nothing. On the golden worlds as the golden tests explore them,
// and on every live lookahead root of each app's deployment (steering
// over its properties, and predictive resolution where the app has it) at
// three seeds, a fault-free ChainDFS run checks the same states in the
// same order as the same run with a seen set. On the live roots, at the
// live depth (3, steering's; predictive resolution here searches 2 or 3),
// no state above the bound is checked twice within its run at all. At the
// bound states may repeat, and on the golden gossip world a few repeat
// above it with nothing to expand: gossip echoes the pull half of an
// exchange back and forth (ROADMAP item 8), which can bring a chain back
// to a state two steps later; the counts are logged. Two positive controls show the
// audit can fail: with a fault budget of 2 on cmd/mc's n=15 snapshot,
// where a crash and a recovery lead back to where they started, it must
// count revisits, and on two nodes that echo one message back and forth
// unchanged the trails with and without a seen set must differ.
func TestFaultFreeChainsNeverRevisit(t *testing.T) {
	for _, g := range []struct {
		name  string
		world func() *explore.World
		tune  func(x *explore.Explorer)
	}{
		{"randtree", goldenRandtreeWorld, func(x *explore.Explorer) {
			x.Depth, x.MaxStates = 5, 2048
			x.Properties = []explore.Property{randtree.NoParentCycleProperty(), randtree.DegreeBoundProperty()}
		}},
		{"gossip/drop+generic", goldenGossipWorld, func(x *explore.Explorer) { x.Depth, x.MaxStates, x.DropBranches = 4, 4096, true }},
		{"paxos", goldenPaxosWorld, func(x *explore.Explorer) { x.Depth, x.MaxStates = 6, 1024 }},
		{"randtree/fault-world", goldenFaultWorld, func(x *explore.Explorer) {
			x.Depth, x.MaxStates, x.Properties = 4, 4096, randtree.Properties()
		}},
	} {
		plain := audited(t, g.world(), explore.ChainDFS{}, g.tune)
		seen := audited(t, g.world(), seenChain{}, g.tune)
		t.Logf("golden %s: %d states, %d repeated within the run", g.name, plain.states, plain.dups)
		if !slices.Equal(plain.trail, seen.trail) {
			t.Errorf("golden %s: %d states without a seen set, %d with one: the seen set prunes", g.name, plain.states, seen.states)
		}
	}

	live := func(x *explore.Explorer) { x.Depth, x.MaxStates = 3, 256 }
	below := func(x *explore.Explorer) { x.Depth, x.MaxStates = 2, 256 }
	for _, app := range []struct {
		name string
		run  func(seed int64, props []explore.Property) *core.Cluster
	}{
		{"randtree", func(seed int64, props []explore.Property) *core.Cluster {
			e := randtree.NewExperiment(randtree.ExperimentConfig{N: 15, Seed: seed, Setup: randtree.SetupChoiceCrystalBall,
				Runtime: steered(append(props, randtree.Properties()...))})
			e.Eng.RunFor(3 * time.Second)
			return e.Cluster
		}},
		{"paxos", func(seed int64, props []explore.Property) *core.Cluster {
			e := paxos.NewExperiment(paxos.ExperimentConfig{Seed: seed, Policy: paxos.PolicyPredictive, Commands: 10,
				Runtime: steered(append(props, paxos.AgreementProperty()))})
			e.Eng.RunFor(2 * time.Second)
			return e.Cluster
		}},
		{"gossip", func(seed int64, props []explore.Property) *core.Cluster {
			e := gossip.NewExperiment(gossip.ExperimentConfig{N: 8, Seed: seed, Strategy: gossip.StrategyPredictive,
				Runtime: steered(append(props, gossip.ReceiptProperty()))})
			for u := 0; u < 2; u++ {
				e.Eng.Schedule(time.Duration(u)*300*time.Millisecond, func() { gossip.PublishUpdate(e.Cluster, sm.NodeID(u), u) })
			}
			e.Eng.RunFor(2 * time.Second)
			return e.Cluster
		}},
		{"dissem", func(seed int64, props []explore.Property) *core.Cluster {
			e := dissem.NewExperiment(dissem.ExperimentConfig{N: 6, Blocks: 6, Seed: seed, Strategy: dissem.StrategyPredictive,
				Runtime: steered(props)})
			e.Cluster.Engine().RunFor(2 * time.Second)
			return e.Cluster
		}},
		{"tracker", func(seed int64, props []explore.Property) *core.Cluster {
			e := tracker.NewExperiment(tracker.ExperimentConfig{Peers: 5, Blocks: 4, Seed: seed, Policy: tracker.PolicyRandom,
				Runtime: steered(append(props, tracker.RegistryProperty(5)))})
			e.Eng.RunFor(2 * time.Second)
			return e.Cluster
		}},
	} {
		for _, seed := range []int64{1, 2, 3} {
			a := newRevisitAudit()
			a.capture = true
			st := app.run(seed, []explore.Property{a.property(true)}).Stats()
			if a.runs == 0 || a.runs != len(a.roots) || uint64(a.states) != st.LookaheadStates {
				t.Fatalf("%s seed %d: the audit saw %d runs and %d states, the runtime explored %d", app.name, seed, a.runs, a.states, st.LookaheadStates)
			}
			pruned, above := 0, 0
			for _, w := range a.roots {
				if !slices.Equal(audited(t, copyWorld(w), explore.ChainDFS{}, live).trail, audited(t, copyWorld(w), seenChain{}, live).trail) {
					pruned++
				}
				// The states a run to depth 3 would record in a seen set
				// are the states a run to depth 2 checks.
				above += audited(t, copyWorld(w), explore.ChainDFS{}, below).dups
			}
			t.Logf("%s seed %d: %d live runs, %d of their %d states repeated within the run, %d above depth 3",
				app.name, seed, a.runs, a.dups, a.states, above)
			if pruned != 0 || above != 0 {
				t.Errorf("%s seed %d: a seen set prunes %d of %d live roots; %d states above depth 3 repeat within their run", app.name, seed, pruned, len(a.roots), above)
			}
		}
	}

	// Positive controls: fault transitions revisit, and the audit sees it;
	// a message echoed back and forth unchanged is a chain that revisits
	// above its bound, and there the seen set's trail differs.
	a := audited(t, randtreeSnapshot(15, 1, false), explore.ChainDFS{}, func(x *explore.Explorer) {
		x.Depth, x.MaxStates, x.FaultBudget = 4, 4000, 2
	})
	if a.dups == 0 {
		t.Errorf("FaultBudget 2 on the n=15 snapshot: 0 of %d states revisited; the audit cannot see a revisit", a.states)
	}
	echoes := func() *explore.World {
		w := explore.NewWorld(explore.FirstPolicy, 1)
		w.AddNode(0, echo{})
		w.AddNode(1, echo{})
		w.InjectMessage(&sm.Msg{Src: 0, Dst: 1, Kind: "echo", Body: 0})
		return w
	}
	deep := func(x *explore.Explorer) { x.Depth = 6 }
	if plain, seen := audited(t, echoes(), explore.ChainDFS{}, deep), audited(t, echoes(), seenChain{}, deep); slices.Equal(plain.trail, seen.trail) {
		t.Errorf("an echo chain to depth 6 checks %d states with a seen set and without: the trails cannot tell a pruning seen set", plain.states)
	}
}

// echo is a stateless service that sends every message back to its
// sender unchanged.
type echo struct{}

func (echo) Init(sm.Env) {}
func (echo) OnMessage(env sm.Env, m *sm.Msg) {
	env.Send(m.Src, m.Kind, m.Body, 0)
}
func (echo) OnTimer(sm.Env, string) {}
func (e echo) Clone() sm.Service    { return e }
func (echo) Digest() uint64         { return 1 }

// steered is a runtime that steers over props and checkpoints often
// enough for every node's model to hold its peers.
func steered(props []explore.Property) core.Config {
	return core.Config{Steering: true, Properties: props, CheckpointInterval: 100 * time.Millisecond}
}
