package explore

import (
	"math/rand"
	"testing"

	"crystalchoice/internal/sm"
)

// digestWorld builds a relay ring with timers pending and several messages
// in flight — every digest component populated.
func digestWorld(n int) *World {
	w := NewWorld(FirstPolicy, 3)
	for i := 0; i < n; i++ {
		w.AddNode(NodeID(i), &relay{id: NodeID(i), n: n})
		w.SetTimerPending(NodeID(i), "tick")
	}
	for i := 0; i < 3; i++ {
		w.InjectMessage(&sm.Msg{Src: NodeID(i), Dst: NodeID((i + 1) % n), Kind: "ping", Body: 2})
	}
	return w
}

// TestIncrementalDigestMatchesFull drives a world through every mutation
// path and checks the maintained digest against the from-scratch
// recomputation after each step.
func TestIncrementalDigestMatchesFull(t *testing.T) {
	w := digestWorld(5)
	check := func(step string) {
		t.Helper()
		if got, want := w.Digest(), w.DigestFull(); got != want {
			t.Fatalf("after %s: incremental digest %#x != full recompute %#x", step, got, want)
		}
	}
	check("setup")
	w.DeliverMessage(0)
	check("deliver")
	w.FireTimer(2, "tick")
	check("fire")
	w.InjectMessage(&sm.Msg{Src: 4, Dst: 0, Kind: "ping", Body: 1})
	check("inject")
	w.RemoveInflight(0)
	check("remove")
	w.SetDown(3, true)
	check("down")
	w.SetDown(3, false)
	check("up")
	w.SetTimerPending(1, "extra")
	check("set-timer")
	w.Crash(2)
	check("crash")
	w.Recover(2, nil)
	check("recover")
	w.PartitionPair(0, 4)
	check("partition-pair")
	w.Partition([]NodeID{0, 1}, []NodeID{3})
	check("partition-groups")
	w.IsolateNode(2)
	check("isolate")
	w.HealPair(0, 4)
	check("heal-pair")
	w.HealNode(2)
	check("heal-node")
	c := w.Clone()
	check("clone(parent)")
	if got, want := c.Digest(), c.DigestFull(); got != want {
		t.Fatalf("clone: incremental digest %#x != full recompute %#x", got, want)
	}
	if c.Digest() != w.Digest() {
		t.Fatalf("fresh clone digests differently from its parent")
	}
}

// TestCloneDoesNotPerturbParentDigest mutates forks heavily and checks the
// parent's digest (and its equality with full recomputation) survives.
func TestCloneDoesNotPerturbParentDigest(t *testing.T) {
	w := digestWorld(4)
	before := w.Digest()
	for i := 0; i < 4; i++ {
		c := w.Clone()
		c.DeliverMessage(0)
		c.FireTimer(NodeID(i), "tick")
		c.InjectMessage(&sm.Msg{Src: 9, Dst: 0, Kind: "ping", Body: 0})
		if got, want := c.Digest(), c.DigestFull(); got != want {
			t.Fatalf("fork %d: incremental %#x != full %#x", i, got, want)
		}
		if c.Digest() == before {
			t.Fatalf("fork %d digest did not change after mutations", i)
		}
	}
	if got := w.Digest(); got != before {
		t.Fatalf("parent digest changed: %#x != %#x", got, before)
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("parent: incremental %#x != full %#x", got, want)
	}
}

// TestAddNodeAfterDigestRebuilds checks membership changes invalidate the
// maintained digest wholesale.
func TestAddNodeAfterDigestRebuilds(t *testing.T) {
	w := digestWorld(3)
	before := w.Digest()
	w.AddNode(7, &relay{id: 7, n: 8})
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after AddNode: incremental %#x != full %#x", got, want)
	}
	if w.Digest() == before {
		t.Fatalf("digest unchanged after adding a node")
	}
}

// TestSettersOnUnknownNode checks SetDown/SetTimerPending for an id that
// was never added: the digest must ignore it (as DigestFull does) rather
// than panic or corrupt the component table.
func TestSettersOnUnknownNode(t *testing.T) {
	w := digestWorld(3)
	before := w.Digest()
	w.SetDown(99, true)
	w.SetTimerPending(99, "ghost")
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after unknown-node writes: incremental %#x != full %#x", got, want)
	}
	if w.Digest() != before {
		t.Fatalf("unknown-node writes moved the digest")
	}
}

// TestForkSeedsDistinct pins the sibling-seed fix: forks of the same
// parent must replay distinct per-node RNG streams.
func TestForkSeedsDistinct(t *testing.T) {
	w := digestWorld(3)
	a, b := w.Clone(), w.Clone()
	if a.Seed == b.Seed {
		t.Fatalf("sibling forks share seed %d", a.Seed)
	}
	if a.Seed == w.Seed || b.Seed == w.Seed {
		t.Fatalf("fork inherited the parent seed verbatim")
	}
	ra := (&worldEnv{w: a, id: 1}).Rand()
	rb := (&worldEnv{w: b, id: 1}).Rand()
	same := true
	for i := 0; i < 8; i++ {
		if ra.Int63() != rb.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("sibling forks replay identical RNG streams")
	}
	// Determinism: rebuilding the same parent yields the same fork seeds.
	w2 := digestWorld(3)
	if a2 := w2.Clone(); a2.Seed != a.Seed {
		t.Fatalf("fork seeds are not deterministic: %d vs %d", a2.Seed, a.Seed)
	}
}

// digestOracle is a property that holds the maintained digest to the
// from-scratch recomputation at every state an exploration reaches.
func digestOracle() Property {
	return Property{Name: "digest==digestfull", Check: func(w *World) bool {
		return w.Digest() == w.DigestFull()
	}}
}

// TestDigestMatchesFullAtEveryExploredState runs every strategy, faults
// off and on, with the oracle installed: the engine deduplicates on
// World.Digest, so a single explored state where it disagrees with
// DigestFull is a pruning bug.
func TestDigestMatchesFullAtEveryExploredState(t *testing.T) {
	for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
		for _, faults := range []int{0, 1} {
			x := NewExplorer(5)
			x.MaxStates = 2048
			x.Strategy = strat
			x.FaultBudget = faults
			x.Properties = []Property{digestOracle()}
			w := relayWorld(4, 3)
			w.Initial = func(id NodeID) sm.Service { return &relay{id: id, n: 4} }
			r := x.Explore(w)
			if r.StatesExplored < 4 {
				t.Fatalf("%s/faults=%d: only %d states explored — the check is vacuous", strat.Name(), faults, r.StatesExplored)
			}
			if !r.Safe() {
				t.Errorf("%s/faults=%d: maintained digest diverged from DigestFull: %v", strat.Name(), faults, r.Violations[0])
			}
		}
	}
}

// TestMsgDigestMemo checks the per-message memo agrees with recomputation
// and is insensitive to memo state on copies.
func TestMsgDigestMemo(t *testing.T) {
	m := &sm.Msg{Src: 1, Dst: 2, Kind: "ping", Body: 7}
	raw := sm.MsgDigestRecompute(m)
	if m.Digest() != raw || m.Digest() != raw {
		t.Fatalf("memoized digest diverges from recomputation")
	}
	cp := *m // copies carry the memo; content is identical so it stays valid
	if cp.Digest() != raw {
		t.Fatalf("copied message digest diverges")
	}
	other := &sm.Msg{Src: 1, Dst: 2, Kind: "ping", Body: 8}
	if other.Digest() == raw {
		t.Fatalf("distinct bodies hash equal")
	}
}

// TestDigestRandomWalkEquivalence drives random interleavings of all world
// operations — fault transitions included — and continuously cross-checks
// the maintained digest.
func TestDigestRandomWalkEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		w := digestWorld(4)
		parents := []*World{}
		parentDigs := []uint64{}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(9); {
			case op == 0 && len(w.Inflight) > 0:
				w.DeliverMessage(rng.Intn(len(w.Inflight)))
			case op == 1:
				w.FireTimer(NodeID(rng.Intn(4)), "tick")
			case op == 2:
				w.InjectMessage(&sm.Msg{Src: NodeID(rng.Intn(4)), Dst: NodeID(rng.Intn(4)), Kind: "ping", Body: rng.Intn(3)})
			case op == 3 && len(w.Inflight) > 0:
				w.RemoveInflight(rng.Intn(len(w.Inflight)))
			case op == 4:
				parents = append(parents, w)
				parentDigs = append(parentDigs, w.Digest())
				w = w.Clone()
			case op == 5:
				w.Crash(NodeID(rng.Intn(4)))
			case op == 6:
				w.Recover(NodeID(rng.Intn(4)), nil)
			case op == 7:
				w.IsolateNode(NodeID(rng.Intn(4)))
			case op == 8:
				if rng.Intn(2) == 0 {
					w.HealNode(NodeID(rng.Intn(4)))
				} else {
					w.PartitionPair(NodeID(rng.Intn(4)), NodeID(rng.Intn(4)))
				}
			}
			if got, want := w.Digest(), w.DigestFull(); got != want {
				t.Fatalf("trial %d step %d: incremental %#x != full %#x", trial, step, got, want)
			}
		}
		for i, p := range parents {
			if got := p.Digest(); got != parentDigs[i] {
				t.Fatalf("trial %d: ancestor %d digest drifted from %#x to %#x", trial, i, parentDigs[i], got)
			}
			if got, want := p.Digest(), p.DigestFull(); got != want {
				t.Fatalf("trial %d: ancestor %d incremental %#x != full %#x", trial, i, got, want)
			}
		}
	}
}
