package explore

import (
	"testing"

	"crystalchoice/internal/sm"
)

// asker sends "ask" to an unmodeled node 9 on a timer; a "no" answer trips
// its refused flag.
type asker struct {
	id      NodeID
	refused bool
	asked   bool
}

func (a *asker) Init(env sm.Env) {}
func (a *asker) OnMessage(env sm.Env, m *sm.Msg) {
	if m.Kind == "no" {
		a.refused = true
	}
}
func (a *asker) OnTimer(env sm.Env, name string) {
	a.asked = true
	env.Send(9, "ask", nil, 0)
}
func (a *asker) Clone() sm.Service { c := *a; return &c }
func (a *asker) Digest() uint64 {
	return sm.NewHasher().WriteNode(a.id).WriteBool(a.refused).WriteBool(a.asked).Sum()
}

func askerWorld(g GenericModel) *World {
	w := NewWorld(FirstPolicy, 1)
	w.Generic = g
	w.AddNode(0, &asker{id: 0})
	w.SetTimerPending(0, "ask")
	return w
}

func neverRefused() Property {
	return Property{Name: "never-refused", Check: func(w *World) bool {
		return !w.Service(0).(*asker).refused
	}}
}

func TestWithoutGenericModelUnknownNodesAbsorb(t *testing.T) {
	w := askerWorld(nil)
	x := NewExplorer(5)
	x.Properties = []Property{neverRefused()}
	r := x.Explore(w)
	if !r.Safe() {
		t.Fatal("without a generic model the refusal future is invisible")
	}
	// The send to node 9 was dropped: only the timer state is explored.
	if r.MaxDepth != 1 {
		t.Fatalf("MaxDepth = %d, want 1", r.MaxDepth)
	}
}

func TestGenericReactionsExploreUnknownFutures(t *testing.T) {
	g := ReplyKinds(map[string][]string{"ask": {"yes", "no"}})
	w := askerWorld(g)
	x := NewExplorer(5)
	x.Properties = []Property{neverRefused()}
	r := x.Explore(w)
	if r.Safe() {
		t.Fatal("generic node's refusal branch not predicted")
	}
	// The violation trace must pass through a generic reaction.
	foundReact := false
	for _, v := range r.Violations {
		for _, step := range v.Trace {
			if len(step) >= 13 && step[:13] == "generic-react" {
				foundReact = true
			}
		}
	}
	if !foundReact {
		t.Fatalf("violation not attributed to a generic reaction: %+v", r.Violations)
	}
}

func TestGenericSilentBranchAlwaysExplored(t *testing.T) {
	// With the Silent model the unknown node never replies: futures stay
	// safe, but delivery to the generic node still consumes a step.
	w := askerWorld(Silent{})
	x := NewExplorer(5)
	x.Properties = []Property{neverRefused()}
	r := x.Explore(w)
	if !r.Safe() {
		t.Fatal("silent generic node produced a reaction")
	}
	if r.MaxDepth != 2 {
		t.Fatalf("MaxDepth = %d, want 2 (timer + generic delivery)", r.MaxDepth)
	}
}

func TestGenericDoesNotMutateStartWorld(t *testing.T) {
	g := ReplyKinds(map[string][]string{"ask": {"yes", "no"}})
	w := askerWorld(g)
	before := w.Digest()
	x := NewExplorer(5)
	x.Explore(w)
	if w.Digest() != before {
		t.Fatal("exploration mutated the start world")
	}
}

func TestReplyKindsAddressing(t *testing.T) {
	g := ReplyKinds(map[string][]string{"ask": {"ok"}})
	reactions := g.Reactions(&sm.Msg{Src: 3, Dst: 9, Kind: "ask"})
	if len(reactions) != 1 || len(reactions[0]) != 1 {
		t.Fatalf("reactions = %+v", reactions)
	}
	reply := reactions[0][0]
	if reply.Src != 9 || reply.Dst != 3 || reply.Kind != "ok" {
		t.Fatalf("reply misaddressed: %+v", reply)
	}
	if g.Reactions(&sm.Msg{Kind: "unknown"}) != nil {
		t.Fatal("unlisted kind should have no reactions")
	}
}
