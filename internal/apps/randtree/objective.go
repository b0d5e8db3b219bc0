package randtree

import (
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// TreeView is the read-only view both variants expose; the balance
// objective and the safety properties are written against it so they work
// with either implementation inside lookahead worlds.
type TreeView interface {
	TreeDepth() int
	TreeDepthBelow() int
	TreeRouted() int
	TreeJoined() bool
	TreeParent() sm.NodeID
	TreeHasChild(id sm.NodeID) bool
	TreeChildCount() int
}

// BalanceObjective scores a world by tree balance: it penalizes the worst
// "effective depth" — a node's level plus the height of its subtree plus
// any joins currently routed into it — and, secondarily, the average. This
// is the "objective that prioritizes building a balanced tree" installed
// in the paper's Section-4 experiment.
func BalanceObjective() explore.Objective {
	return explore.ObjectiveFunc{ObjectiveName: "rt.balance", Fn: func(w *explore.World) float64 {
		worst, sum, cnt := 0.0, 0.0, 0
		for _, id := range w.Nodes() {
			tv, ok := w.Service(id).(TreeView)
			if !ok || !tv.TreeJoined() {
				continue
			}
			eff := float64(tv.TreeDepth() + tv.TreeDepthBelow() + tv.TreeRouted())
			if eff > worst {
				worst = eff
			}
			sum += eff
			cnt++
		}
		if cnt == 0 {
			return 0
		}
		return -(worst + 0.1*sum/float64(cnt))
	}}
}

// liveParent returns the view of the parent node id names, when id is up,
// joined and a TreeView and that parent is a distinct node present, up and
// a TreeView: the pairs the orphan and cycle properties constrain. ok is
// false for every other node, which constrains nothing.
func liveParent(w *explore.World, id sm.NodeID) (parent TreeView, ok bool) {
	if w.IsDown(id) {
		return nil, false // a crashed node's stale state accuses no one
	}
	a, ok := w.Service(id).(TreeView)
	if !ok || !a.TreeJoined() {
		return nil, false
	}
	p := a.TreeParent()
	if p < 0 || p == id || w.IsDown(p) {
		return nil, false
	}
	parent, ok = w.Service(p).(TreeView)
	return parent, ok
}

// treeStater is what both variants share through the embedded state: the
// orphan property's Step reads the children a touched node had before.
type treeStater interface{ treeState() *state }

func (s *state) treeState() *state { return s }

// allNodes lifts a per-node condition to a Check over the whole world.
func allNodes(ok func(w *explore.World, id sm.NodeID) bool) func(w *explore.World) bool {
	return func(w *explore.World) bool {
		for _, id := range w.Nodes() {
			if !ok(w, id) {
				return false
			}
		}
		return true
	}
}

// adopted reports that node id is no orphan: its parent, if it constrains
// one, lists it as a child.
func adopted(w *explore.World, id sm.NodeID) bool {
	b, ok := liveParent(w, id)
	return !ok || b.TreeHasChild(id)
}

// NoOrphanedChildProperty is the safety property used by the execution
// steering experiment (E8): if a joined node a believes b is its parent,
// then b must know a as a child — otherwise a is silently disconnected
// from the dissemination tree, the inconsistency class CrystalBall masks.
// Both endpoints must be present in the world for the check to apply.
//
// A write to node id can orphan id itself, or a node that named id as its
// parent and that id no longer lists: Step checks id and the children its
// pre-image held that its state has dropped. A pre-image that is not a
// tree state says nothing about who was listed, so that Step scans.
func NoOrphanedChildProperty() explore.Property {
	check := allNodes(adopted)
	return explore.Property{
		Name:  "rt.no-orphaned-child",
		Check: check,
		Step: func(w *explore.World, id sm.NodeID, prev sm.Service) bool {
			if !adopted(w, id) {
				return false
			}
			was, ok := prev.(treeStater)
			if !ok {
				return check(w)
			}
			now, _ := w.Service(id).(TreeView)
			for _, c := range was.treeState().Children {
				if (now == nil || !now.TreeHasChild(c.ID)) && !adopted(w, c.ID) {
					return false
				}
			}
			return true
		},
	}
}

// acyclic reports that node id and the parent it names do not name each
// other.
func acyclic(w *explore.World, id sm.NodeID) bool {
	b, ok := liveParent(w, id)
	return !ok || !b.TreeJoined() || b.TreeParent() != id
}

// NoParentCycleProperty is the safety property of the execution-steering
// experiment (E8): no two nodes may each believe the other is its parent.
// A stale or forged JoinReply can create such a two-cycle, silently
// detaching the pair's subtree from the dissemination tree — the class of
// inconsistency CrystalBall predicts and steers away from (paper §2).
//
// The only two-cycle a write to node id can close is with the parent id
// names now, and the condition is symmetric: checking id's side checks the
// pair.
func NoParentCycleProperty() explore.Property {
	return explore.Property{
		Name:  "rt.no-parent-cycle",
		Check: allNodes(acyclic),
		Step:  func(w *explore.World, id sm.NodeID, _ sm.Service) bool { return acyclic(w, id) },
	}
}

// withinDegree reports that node id has at most MaxChildren children.
func withinDegree(w *explore.World, id sm.NodeID) bool {
	tv, ok := w.Service(id).(TreeView)
	return !ok || tv.TreeChildCount() <= MaxChildren
}

// DegreeBoundProperty asserts no node exceeds MaxChildren; a write to a
// node can only change its own count.
func DegreeBoundProperty() explore.Property {
	return explore.Property{
		Name:  "rt.degree-bound",
		Check: allNodes(withinDegree),
		Step:  func(w *explore.World, id sm.NodeID, _ sm.Service) bool { return withinDegree(w, id) },
	}
}
