package randtree

import (
	"testing"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// counted is a tree node that counts the TreeView reads made of it.
type counted struct {
	*Choice
	reads *int
}

func (c counted) TreeJoined() bool               { *c.reads++; return c.Choice.TreeJoined() }
func (c counted) TreeParent() sm.NodeID          { *c.reads++; return c.Choice.TreeParent() }
func (c counted) TreeHasChild(id sm.NodeID) bool { *c.reads++; return c.Choice.TreeHasChild(id) }
func (c counted) TreeChildCount() int            { *c.reads++; return c.Choice.TreeChildCount() }

// heapTree returns a joined binary tree of n nodes in heap order — node i's
// children are 2i+1 and 2i+2 — each counting its reads into *reads.
func heapTree(n int, reads *int) *explore.World {
	w := explore.NewWorld(explore.FirstPolicy, 1)
	for i := 0; i < n; i++ {
		s := NewChoice(sm.NodeID(i), 0)
		s.Joined, s.Depth = true, 1
		if i > 0 {
			s.Parent = sm.NodeID((i - 1) / 2)
			s.Depth = w.Service(s.Parent).(counted).Depth + 1
		}
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n {
				s.Children = append(s.Children, child{ID: sm.NodeID(c), Size: 1})
			}
		}
		w.AddNode(sm.NodeID(i), counted{s, reads})
	}
	return w
}

// Cost-shape gate (make bench-alloc): a write to one node is checked by
// reading that node, its parent and the children it dropped, whatever the
// tree's size — and the three Steps allocate nothing.
func TestTreeStepIndependentOfSize(t *testing.T) {
	props := Properties()
	// write rewrites node 1 of an n-node tree — and drops its child 3, when
	// drop is set, after 3 left the tree unless orphan is set — and returns
	// each property's verdict by Step and by Check and the reads each Step
	// made.
	write := func(n int, drop, orphan bool) (stepped, checked []bool, reads []int) {
		var count int
		w := heapTree(n, &count)
		if drop && !orphan {
			left := w.Service(3).(counted)
			left.Joined, left.Parent = false, -1
		}
		node := w.Service(1).(counted)
		prev := node.Clone()
		node.Routed++
		if drop {
			node.dropChild(3)
		}
		for _, p := range props {
			count = 0
			stepped = append(stepped, p.Step(w, 1, prev))
			reads = append(reads, count)
			checked = append(checked, p.Check(w))
			if a := testing.AllocsPerRun(100, func() { p.Step(w, 1, prev) }); a != 0 {
				t.Errorf("%s: Step allocates %v times at n=%d", p.Name, a, n)
			}
		}
		return stepped, checked, reads
	}
	for _, tc := range []struct {
		name         string
		drop, orphan bool
	}{{"rewrite", false, false}, {"prune", true, false}, {"orphan", true, true}} {
		smallS, smallC, smallR := write(15, tc.drop, tc.orphan)
		bigS, bigC, bigR := write(255, tc.drop, tc.orphan)
		for i, p := range props {
			want := !tc.orphan || p.Name != "rt.no-orphaned-child"
			if smallS[i] != want || bigS[i] != want || smallC[i] != want || bigC[i] != want {
				t.Errorf("%s/%s: Step %v/%v, Check %v/%v at n=15/255; want %v", tc.name, p.Name, smallS[i], bigS[i], smallC[i], bigC[i], want)
			}
			// A refuting Step stops at the first orphan it meets.
			if want && (smallR[i] != bigR[i] || smallR[i] == 0) {
				t.Errorf("%s/%s: Step makes %d TreeView reads at n=15, %d at n=255: want the same, nonzero", tc.name, p.Name, smallR[i], bigR[i])
			}
		}
		t.Logf("%s: TreeView reads per Step %v at n=15, %v at n=255", tc.name, smallR, bigR)
	}
}

// Cost-shape gate (make bench-alloc): a node's Clone is one allocation —
// the copy itself, sharing the never-written child list — and its digest
// none, at every node of a 15- and a 255-node tree.
func TestForkCostIndependentOfTreeSize(t *testing.T) {
	for _, n := range []int{15, 255} {
		var reads int
		w := heapTree(n, &reads)
		for _, id := range w.Nodes() {
			s := w.Service(id).(counted).Choice
			if a := testing.AllocsPerRun(100, func() { forkSink = s.Clone() }); a != 1 {
				t.Errorf("n=%d: node %v's Clone allocates %v objects, want 1", n, id, a)
			}
			if a := testing.AllocsPerRun(100, func() { digestSink = s.digest() }); a != 0 {
				t.Errorf("n=%d: node %v's digest allocates %v objects, want 0", n, id, a)
			}
		}
	}
}

// The cost gate's results escape, as a world's clones and digests do.
var (
	forkSink   sm.Service
	digestSink uint64
)
