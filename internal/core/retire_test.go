package core

import (
	"testing"
	"time"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// TestRetiredRootsPinNothing is the pool-safety test of lookahead root
// retirement (Node.explore): a node's previous root goes back to the world
// free-list, sealed containers and all, and the next lookaheads' forks
// reuse its shell. Whatever is still reachable must not move while they
// do: the node's current root, the model's standing world (seen through a
// world built from it), and the witness world of an unsafe check, which
// the retired roots' forks must never have shared a container with.
func TestRetiredRootsPinNothing(t *testing.T) {
	var (
		witness       *explore.World
		witnessDigest uint64
		retired       = map[*explore.World]bool{} // roots handed back to the free list
		reused        int                         // checks of a world in a retired shell
	)
	holds := func(w *explore.World) bool {
		if retired[w] {
			reused++
		}
		for _, id := range w.Nodes() {
			if w.Service(id).(*balSvc).val > 10 {
				if witness == nil {
					witness, witnessDigest = w, w.DigestFull()
				}
				return false
			}
		}
		return true
	}
	bound := explore.Property{
		Name:  "val<=10",
		Check: holds,
		// A Step makes the runtime keep safe roots (Cluster.carryRoots).
		Step: func(w *explore.World, _ NodeID, _ sm.Service) bool { return holds(w) },
	}
	eng, cl := rig(t, 3, Config{
		NewResolver:        func(*Node) Resolver { return First{} },
		CheckpointInterval: 50 * time.Millisecond,
		Steering:           true,
		Properties:         []explore.Property{bound},
	})
	eng.RunFor(200 * time.Millisecond) // checkpoints propagate
	n := cl.Node(1)

	// An unsafe check: delivering load 100 breaks the bound, dropping it
	// does not, so the message is steered away and the dropped future's
	// start world is the node's root.
	n.Inject("load", 100, 8)
	if witness == nil || cl.Stats().Steered != 1 {
		t.Fatalf("steered %d messages, witness %v: want the load steered away", cl.Stats().Steered, witness)
	}
	if n.lookRoot == nil {
		t.Fatal("no root kept after a safe lookahead")
	}
	now := time.Duration(eng.Now())
	self := n.svc.Clone()
	standing := n.model.BuildWorld(self.Clone(), now, nil, 1).DigestFull()

	// Safe checks on every node, without virtual time passing (no
	// checkpoint arrives, so the standing world models the same states):
	// each retires its node's previous root, and the next forks reuse it.
	check := func(id NodeID) {
		if r := cl.Node(id).lookRoot; r != nil {
			retired[r] = true
		}
		cl.Node(id).Inject("load", 0, 8)
		delete(retired, cl.Node(id).lookRoot) // a recycled shell, now a root
	}
	for round := 0; round < 20; round++ {
		for _, id := range []NodeID{1, 0, 2} {
			check(id)
		}
		root := n.lookRoot
		if root == nil {
			t.Fatalf("round %d: no root kept after a safe lookahead", round)
		}
		rootDigest := root.DigestFull()
		for _, id := range []NodeID{0, 2} {
			check(id)
		}
		if got := root.DigestFull(); n.lookRoot != root || got != rootDigest {
			t.Fatalf("round %d: node 1's root moved while other nodes' roots were retired: digest %x, was %x", round, got, rootDigest)
		}
		if got := witness.DigestFull(); got != witnessDigest {
			t.Fatalf("round %d: the witness world moved: digest %x, was %x", round, got, witnessDigest)
		}
		w := n.model.BuildWorld(self.Clone(), now, nil, 1)
		if w.Digest() != standing || w.DigestFull() != standing {
			t.Fatalf("round %d: a world built from the standing world digests %x (from scratch %x), was %x",
				round, w.Digest(), w.DigestFull(), standing)
		}
	}
	if reused == 0 {
		t.Fatal("no retired root was seen again as a lookahead world: retirement recycles nothing")
	}
	if cl.Stats().Steered != 1 {
		t.Fatalf("steered %d messages, want only the first", cl.Stats().Steered)
	}
}
