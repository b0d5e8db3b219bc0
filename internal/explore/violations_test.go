package explore

import (
	"reflect"
	"testing"

	"crystalchoice/internal/sm"
)

// TestCanonLabel pins the per-step canonicalization table.
func TestCanonLabel(t *testing.T) {
	cases := map[string]string{
		"crash node5":           "crash",
		"recover node0":         "recover",
		"reset node12":          "reset",
		"isolate node3":         "isolate",
		"heal node3":            "heal",
		"node3!rt.hbSend":       "!rt.hbSend",
		"node0->node2 rt.join":  "rt.join",
		"drop node0->node2 g.d": "drop g.d",
		"generic-react#2":       "generic-react",
		"generic-silent":        "generic-silent",
	}
	for in, want := range cases {
		if got := canonLabel(in); got != want {
			t.Errorf("canonLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestViolationClassesCanonicalize: violations whose traces are
// permutations (or repetitions) of the same step kinds collapse into one
// class holding the shortest witness and the raw count.
func TestViolationClassesCanonicalize(t *testing.T) {
	r := &Report{}
	vs := []Violation{
		{Property: "p", Trace: []string{"crash node1", "node1->node0 rt.join"}, Depth: 2},
		{Property: "p", Trace: []string{"node2->node0 rt.join", "crash node5", "node5->node0 rt.join"}, Depth: 3},
		{Property: "p", Trace: []string{"crash node3", "node3->node0 rt.join"}, Depth: 2},
		{Property: "q", Trace: []string{"crash node1", "node1->node0 rt.join"}, Depth: 2},
	}
	for _, v := range vs {
		r.addViolation(v)
	}
	classes := r.ViolationClasses()
	if len(classes) != 2 {
		t.Fatalf("classes = %d, want 2 (same signature under p and q): %+v", len(classes), classes)
	}
	p := classes[0]
	if p.Property != "p" || p.Count != 3 || p.Signature != "crash,rt.join" {
		t.Fatalf("class p wrong: %+v", p)
	}
	// Shortest witness, ties broken lexicographically: the crash-node1 trace.
	if want := []string{"crash node1", "node1->node0 rt.join"}; !reflect.DeepEqual(p.Witness.Trace, want) {
		t.Fatalf("witness = %v, want %v", p.Witness.Trace, want)
	}
	if classes[1].Property != "q" || classes[1].Count != 1 {
		t.Fatalf("class q wrong: %+v", classes[1])
	}
	if p.Digest == classes[1].Digest {
		t.Fatal("distinct classes share a digest")
	}
}

// TestViolationClassMergeStable: merging shard class maps in either order
// yields the same counts and witnesses.
func TestViolationClassMergeStable(t *testing.T) {
	mk := func(vs ...Violation) *Report {
		r := &Report{}
		for _, v := range vs {
			r.addViolation(v)
		}
		return r
	}
	a1 := Violation{Property: "p", Trace: []string{"crash node9", "node9->node0 rt.join"}, Depth: 2}
	a2 := Violation{Property: "p", Trace: []string{"crash node1", "node1->node0 rt.join"}, Depth: 2}
	ab := mk(a1)
	ab.mergeClasses(mk(a2))
	ba := mk(a2)
	ba.mergeClasses(mk(a1))
	if !reflect.DeepEqual(ab.ViolationClasses(), ba.ViolationClasses()) {
		t.Fatalf("merge order changed the summary:\n%+v\n%+v", ab.ViolationClasses(), ba.ViolationClasses())
	}
	if got := ab.ViolationClasses()[0].Witness.Trace[0]; got != "crash node1" {
		t.Fatalf("witness not canonical across merge orders: %v", got)
	}
}

// TestViolationClassesStableAcrossWorkers: on disjoint chains the explored
// state set cannot depend on worker interleaving, so the canonical class
// summary — counts, witnesses, order — must be identical at Workers 1 and
// 4 even though the raw Violations arrive in different orders.
func TestViolationClassesStableAcrossWorkers(t *testing.T) {
	run := func(workers int) *Report {
		w := fanWorld(4, 4, 3)
		x := NewExplorer(5)
		x.Workers = workers
		x.Properties = []Property{{
			Name: "spread-bounded",
			Check: func(w *World) bool {
				total := 0
				for _, id := range w.Nodes() {
					total += w.Service(id).(*relay).counter
				}
				return total < 2
			},
		}}
		return x.Explore(w)
	}
	seq, par := run(1), run(4)
	if len(seq.Violations) == 0 {
		t.Fatal("test world produced no violations")
	}
	if len(seq.Violations) != len(par.Violations) {
		t.Fatalf("raw violation counts diverge: %d vs %d", len(seq.Violations), len(par.Violations))
	}
	if !reflect.DeepEqual(seq.ViolationClasses(), par.ViolationClasses()) {
		t.Fatalf("class summary depends on worker count:\nseq %+v\npar %+v",
			seq.ViolationClasses(), par.ViolationClasses())
	}
}

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

// TestGoldenViolationsUntouched: canonicalization is summary-only — the
// raw Violations slice (order, traces, duplicates) must be exactly what
// the pre-canonicalization engine recorded, since the golden reports pin
// it byte for byte.
func TestGoldenViolationsUntouched(t *testing.T) {
	w := NewWorld(FirstPolicy, 1)
	w.AddNode(0, &chainNode{id: 0, next: 1})
	w.AddNode(1, &chainNode{id: 1, next: -1})
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: "ping"})
	x := NewExplorer(3)
	x.Properties = []Property{{Name: "never", Check: func(*World) bool { return false }}}
	r := x.Explore(w)
	if len(r.Violations) != r.StatesExplored {
		t.Fatalf("raw violations deduplicated: %d violations for %d states",
			len(r.Violations), r.StatesExplored)
	}
}
