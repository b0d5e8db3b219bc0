package explore

import (
	"slices"
	"strings"
	"testing"

	"crystalchoice/internal/sm"
)

// atMostOne holds while at most one node's service satisfies pred. Its
// Step is the shape of every pairwise property's: only a touched node that
// newly satisfies pred can break it, and then only against the others.
func atMostOne(name string, pred func(sm.Service) bool) Property {
	others := func(w *World, but NodeID) int {
		n := 0
		for _, id := range w.Nodes() {
			if id != but && pred(w.Service(id)) {
				n++
			}
		}
		return n
	}
	return Property{
		Name:  name,
		Check: func(w *World) bool { return others(w, -1) <= 1 },
		Step: func(w *World, id NodeID, prev sm.Service) bool {
			return !pred(w.Service(id)) || pred(prev) || others(w, id) == 0
		},
	}
}

// staysUp holds while no down node's service satisfies pred. Its Step
// reads the touched node's down flag, which a crash flips without writing
// a service: the verdict stays exact only because SetDown drops the delta.
func staysUp(name string, pred func(sm.Service) bool) Property {
	downAnd := func(w *World, id NodeID) bool { return w.IsDown(id) && pred(w.Service(id)) }
	return Property{
		Name: name,
		Check: func(w *World) bool {
			return !slices.ContainsFunc(w.Nodes(), func(id NodeID) bool { return downAnd(w, id) })
		},
		Step: func(w *World, id NodeID, _ sm.Service) bool { return !downAnd(w, id) },
	}
}

func relayed(s sm.Service) bool { return s.(*relay).counter > 0 }

func oddRelayed(s sm.Service) bool { return s.(*relay).counter%2 == 1 }

// auditFailures returns the referee violations of a report.
func auditFailures(r *Report) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if strings.HasSuffix(v.Property, AuditSuffix) {
			out = append(out, v)
		}
	}
	return out
}

// TestStepMatchesCheckAtEveryExploredState runs every strategy, faults off
// and on, with the referee installed, over a chain whose property breaks
// two deliveries in and stays broken and over a ring the ping laps, where
// it breaks and mends and a walk writes the services it already owns: at
// every state the engine checks — by Step, by Check after a violating
// parent, a reset or an in-place write, or not at all when no service was
// touched — its verdict is Check's, and the report is the one a Step-less
// property gets.
func TestStepMatchesCheckAtEveryExploredState(t *testing.T) {
	worlds := []struct {
		name        string
		nodes, hops int
		prop        Property
	}{
		{"chain", 4, 3, atMostOne("one-relayed", relayed)},
		{"ring", 3, 8, atMostOne("one-odd", oddRelayed)},
	}
	for _, tc := range worlds {
		for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
			for _, faults := range []int{0, 1} {
				explore := func(props []Property) *Report {
					x := NewExplorer(tc.hops + 2)
					x.MaxStates = 2048
					x.Strategy = strat
					x.FaultBudget = faults
					x.DropBranches = true
					x.Properties = props
					w := relayWorld(tc.nodes, tc.hops)
					w.Initial = func(id NodeID) sm.Service { return &relay{id: id, n: tc.nodes} }
					return x.Explore(w)
				}
				props, audit := AuditSteps([]Property{tc.prop})
				r := explore(props)
				what := tc.name + "/" + strat.Name()
				if faults > 0 {
					what += "+faults"
				}
				for _, v := range auditFailures(r) {
					t.Errorf("%s: %v", what, v)
				}
				if audit.Mismatches != 0 || audit.Stepped == 0 || audit.Refuted == 0 || audit.Full < 2 {
					t.Errorf("%s: audit %v: want no mismatch, and Step, a Step returning false and the Check fallback all exercised", what, audit)
				}
				plain := explore([]Property{{Name: tc.prop.Name, Check: tc.prop.Check}})
				if len(plain.Violations) == 0 || len(r.Violations) != len(plain.Violations) {
					t.Fatalf("%s: %d violations with Step, %d without", what, len(r.Violations), len(plain.Violations))
				}
				for i, v := range plain.Violations {
					if got := r.Violations[i]; got.Depth != v.Depth || strings.Join(got.Trace, "|") != strings.Join(v.Trace, "|") {
						t.Fatalf("%s: violation %d is %v with Step, %v without", what, i, got, v)
					}
				}
			}
		}
	}
}

// TestDownFlipForcesCheck crashes relayed nodes under a property whose
// Step reads down flags: a crash writes no service, so a state reached by
// one must be decided by Check, not inherit its parent's verdict.
func TestDownFlipForcesCheck(t *testing.T) {
	for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
		props, audit := AuditSteps([]Property{staysUp("relayed-up", relayed)})
		x := NewExplorer(5)
		x.MaxStates = 2048
		x.Strategy = strat
		x.FaultBudget = 1
		x.Properties = props
		r := x.Explore(relayWorld(4, 3))
		for _, v := range auditFailures(r) {
			t.Errorf("%s: %v", strat.Name(), v)
		}
		if audit.Mismatches != 0 || audit.Stepped == 0 || r.Safe() {
			t.Errorf("%s: %d violations, audit %v: want a relayed node crashed, every verdict Check's", strat.Name(), len(r.Violations), audit)
		}
	}
}

// rebuilt is a lookahead world assembled the way model.BuildWorld does it:
// a fresh world holding a clone of every service of w.
func rebuilt(w *World) *World {
	c := NewWorld(FirstPolicy, w.Seed+1)
	for _, id := range w.Nodes() {
		c.AddNode(id, w.Service(id).Clone())
	}
	return c
}

// TestPriorCarriesRootVerdict checks the start world against its
// predecessor's services when Explorer.Prior qualifies, and from scratch
// when it does not: another down flag, another node set, another property
// list, a predecessor some property failed at, or one never explored.
func TestPriorCarriesRootVerdict(t *testing.T) {
	props, audit := AuditSteps([]Property{atMostOne("one-relayed", relayed)})
	root := func(prior *World, ps []Property, w *World) (int, int) {
		carried, full := audit.Carried, audit.Full
		x := NewExplorer(1)
		x.Properties = ps
		x.Prior = prior
		if r := x.Explore(w); len(auditFailures(r)) > 0 || audit.Mismatches != 0 {
			t.Fatalf("root verdict differs from Check: %v", r.Violations)
		}
		return audit.Carried - carried, audit.Full - full
	}
	first := relayWorld(4, 3)
	if carried, full := root(nil, props, first); carried != 0 || full != 1 {
		t.Fatalf("first root: %d carried, %d full checks; want a full check", carried, full)
	}
	// One delivery later, every service re-cloned: the root is decided by
	// one Step per node, every deeper state by a Step of its own.
	second := rebuilt(first)
	second.Service(0).(*relay).counter++
	second.InjectMessage(&sm.Msg{Src: 0, Dst: 1, Kind: "ping", Body: 0})
	if carried, full := root(first, props, second); carried != 1 || full != 0 {
		t.Fatalf("second root: %d carried, %d full checks; want it carried", carried, full)
	}
	// second now holds one relayed node and its exploration found the
	// second: a violating run, but the root itself passed, so it carries.
	third := rebuilt(second)
	third.Service(1).(*relay).counter++
	if carried, full := root(second, props, third); carried != 1 || full != 0 {
		t.Fatalf("third root: %d carried, %d full checks; want it carried", carried, full)
	}
	// The property failed at third: no use as a predecessor.
	if carried, full := root(third, props, rebuilt(third)); carried != 0 || full != 1 {
		t.Fatalf("root after a failing one: %d carried, %d full checks; want a full check", carried, full)
	}
	down := rebuilt(first)
	down.SetDown(3, true)
	if carried, full := root(first, props, down); carried != 0 || full != 1 {
		t.Fatalf("root with another node down: %d carried, %d full checks; want a full check", carried, full)
	}
	grown := rebuilt(first)
	grown.AddNode(9, &relay{id: 9, n: 4})
	if carried, full := root(first, props, grown); carried != 0 || full != 1 {
		t.Fatalf("root with another node set: %d carried, %d full checks; want a full check", carried, full)
	}
	others, _ := AuditSteps([]Property{atMostOne("one-relayed", relayed)})
	if carried, _ := root(first, others, rebuilt(first)); carried != 0 {
		t.Fatal("root carried a verdict reached under another property list")
	}
	if carried, full := root(relayWorld(4, 3), props, rebuilt(first)); carried != 0 || full != 1 {
		t.Fatalf("root after an unexplored one: %d carried, %d full checks; want a full check", carried, full)
	}
}

// A fork taken between a step and its check is some unrecorded distance
// from a checked state: it must not pass for one.
func TestForkOfUncheckedStepIsUnknown(t *testing.T) {
	x := NewExplorer(1)
	x.Properties = []Property{atMostOne("one-relayed", relayed)}
	w := relayWorld(4, 3)
	x.Explore(w)
	stepped := w.Clone()
	stepped.DeliverMessage(0)
	if s := stepped.step; !s.known || len(s.touched) != 1 || s.touched[0].prev != w.Service(0) {
		t.Fatalf("a fork's first step records %+v, want node 0 forked from the start world's service", s)
	}
	if f := stepped.Clone(); f.step.known {
		t.Fatal("fork of a stepped, unchecked world claims a known delta")
	}
	if !stepped.step.known || len(stepped.step.touched) != 1 {
		t.Fatal("forking a world lost its own step record")
	}
}

// TestStepRecordCostsNothingWithoutStep pins pitfall (5) of the design: a
// run whose properties have no Step records nothing per handler execution.
func TestStepRecordCostsNothingWithoutStep(t *testing.T) {
	x := NewExplorer(4)
	x.Properties = []Property{{Name: "always", Check: func(*World) bool { return true }}}
	w := relayWorld(4, 3)
	x.Explore(w)
	c := w.Clone()
	c.DeliverMessage(0)
	if c.step.track || c.step.known || len(c.step.touched) != 0 {
		t.Fatalf("fork of a Step-less run keeps a step record: %+v", c.step)
	}
}
