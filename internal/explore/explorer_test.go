package explore

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"crystalchoice/internal/sm"
)

// relay is a toy service: on "ping" it increments a counter and relays the
// ping to the next node while hops remain.
type relay struct {
	id      NodeID
	n       int
	counter int
}

func (r *relay) Init(env sm.Env) {}
func (r *relay) OnMessage(env sm.Env, m *sm.Msg) {
	if m.Kind != "ping" {
		return
	}
	r.counter++
	hops := m.Body.(int)
	if hops > 0 {
		env.Send(NodeID((int(r.id)+1)%r.n), "ping", hops-1, 0)
	}
}
func (r *relay) OnTimer(env sm.Env, name string) {
	env.Send(NodeID((int(r.id)+1)%r.n), "ping", 2, 0)
}
func (r *relay) Clone() sm.Service { c := *r; return &c }
func (r *relay) Digest() uint64 {
	return sm.NewHasher().WriteNode(r.id).WriteInt(int64(r.counter)).Sum()
}

// chooser exposes a binary choice on "go": option 0 sends "a", option 1
// sends "b" to node 1.
type chooser struct {
	id   NodeID
	sent string
}

func (c *chooser) Init(env sm.Env) {}
func (c *chooser) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case "go":
		i := env.Choose(sm.Choice{Name: "letter", N: 2})
		kind := [2]string{"a", "b"}[i]
		c.sent = kind
		env.Send(1, kind, nil, 0)
	case "a", "b":
		c.sent = m.Kind
	}
}
func (c *chooser) OnTimer(env sm.Env, name string) {}
func (c *chooser) Clone() sm.Service               { cp := *c; return &cp }
func (c *chooser) Digest() uint64 {
	return sm.NewHasher().WriteNode(c.id).WriteString(c.sent).Sum()
}

func relayWorld(n, hops int) *World {
	w := NewWorld(FirstPolicy, 1)
	for i := 0; i < n; i++ {
		w.AddNode(NodeID(i), &relay{id: NodeID(i), n: n})
	}
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: "ping", Body: hops})
	return w
}

func TestChainFollowsConsequences(t *testing.T) {
	w := relayWorld(4, 3) // ping travels 0->1->2->3
	x := NewExplorer(10)
	sum := ObjectiveFunc{ObjectiveName: "sum", Fn: func(w *World) float64 {
		total := 0.0
		for _, id := range w.Nodes() {
			total += float64(w.Service(id).(*relay).counter)
		}
		return total
	}}
	x.Objective = sum
	r := x.Explore(w)
	// Chain depth: 4 handler executions (hops 3,2,1,0).
	if r.MaxDepth != 4 {
		t.Fatalf("MaxDepth = %d, want 4", r.MaxDepth)
	}
	if r.MaxScore != 4 {
		t.Fatalf("MaxScore = %v, want 4 (all relays incremented)", r.MaxScore)
	}
	if !r.Safe() {
		t.Fatal("no properties installed, yet violations reported")
	}
	// The start world must be untouched.
	if w.Service(0).(*relay).counter != 0 || len(w.Inflight) != 1 {
		t.Fatal("Explore mutated the start world")
	}
}

func TestDepthBound(t *testing.T) {
	w := relayWorld(4, 100)
	x := NewExplorer(3)
	r := x.Explore(w)
	if r.MaxDepth != 3 {
		t.Fatalf("MaxDepth = %d, want 3", r.MaxDepth)
	}
}

func TestPropertyViolationDetected(t *testing.T) {
	w := relayWorld(4, 3)
	x := NewExplorer(10)
	x.Properties = []Property{{
		Name: "node2-never-pinged",
		Check: func(w *World) bool {
			return w.Service(2).(*relay).counter == 0
		},
	}}
	r := x.Explore(w)
	if r.Safe() {
		t.Fatal("expected violation not predicted")
	}
	v := r.Violations[0]
	if v.Property != "node2-never-pinged" || v.Depth != 3 {
		t.Fatalf("violation = %+v", v)
	}
	if len(v.Trace) != 3 {
		t.Fatalf("trace length = %d, want 3 (the causal chain)", len(v.Trace))
	}
}

func TestTimerChainStart(t *testing.T) {
	w := NewWorld(FirstPolicy, 1)
	for i := 0; i < 3; i++ {
		w.AddNode(NodeID(i), &relay{id: NodeID(i), n: 3})
	}
	w.SetTimerPending(0, "kick")
	x := NewExplorer(5)
	r := x.Explore(w)
	// Timer fires and produces a 3-hop ping chain: 4 executions total.
	if r.MaxDepth != 4 {
		t.Fatalf("MaxDepth = %d, want 4", r.MaxDepth)
	}
}

func TestDownNodeNotExplored(t *testing.T) {
	w := relayWorld(4, 3)
	w.SetDown(0, true)
	x := NewExplorer(10)
	r := x.Explore(w)
	// The only enabled action targets node 0, which is down.
	if r.MaxDepth != 0 {
		t.Fatalf("explored through a down node: depth %d", r.MaxDepth)
	}
}

func TestForcedChoice(t *testing.T) {
	for want := 0; want < 2; want++ {
		w := NewWorld(ForceFirst(0, "letter", want, FirstPolicy), 1)
		w.AddNode(0, &chooser{id: 0})
		w.AddNode(1, &chooser{id: 1})
		w.InjectMessage(&sm.Msg{Src: 1, Dst: 0, Kind: "go"})
		x := NewExplorer(5)
		kinds := make(map[string]bool)
		x.Objective = ObjectiveFunc{ObjectiveName: "probe", Fn: func(w *World) float64 {
			kinds[w.Service(1).(*chooser).sent] = true
			return 0
		}}
		x.Explore(w)
		wantKind := [2]string{"a", "b"}[want]
		if !kinds[wantKind] {
			t.Fatalf("forcing choice %d never produced %q: %v", want, wantKind, kinds)
		}
		other := [2]string{"b", "a"}[want]
		if kinds[other] {
			t.Fatalf("forcing choice %d leaked alternative %q", want, other)
		}
	}
}

func TestStateBudgetTruncates(t *testing.T) {
	w := relayWorld(8, 1000)
	x := NewExplorer(1000)
	x.MaxStates = 10
	r := x.Explore(w)
	if !r.Truncated {
		t.Fatal("budget exhaustion not reported")
	}
	if r.StatesExplored > 12 {
		t.Fatalf("explored %d states with budget 10", r.StatesExplored)
	}
}

func TestScoreAggregates(t *testing.T) {
	w := relayWorld(3, 2)
	x := NewExplorer(10)
	x.Objective = ObjectiveFunc{ObjectiveName: "c0", Fn: func(w *World) float64 {
		return float64(w.Service(0).(*relay).counter)
	}}
	r := x.Explore(w)
	if r.MinScore != 0 {
		t.Fatalf("MinScore = %v (root state has counter 0)", r.MinScore)
	}
	if r.MaxScore != 1 {
		t.Fatalf("MaxScore = %v, want 1", r.MaxScore)
	}
	if r.MeanScore <= 0 || r.MeanScore >= 1 {
		t.Fatalf("MeanScore = %v, want within (0,1)", r.MeanScore)
	}
}

func TestWorldCloneIndependence(t *testing.T) {
	w := relayWorld(3, 2)
	w.SetTimerPending(1, "t")
	c := w.Clone()
	c.DeliverMessage(0)
	c.FireTimer(1, "t")
	if w.Service(0).(*relay).counter != 0 {
		t.Fatal("clone delivery mutated original service")
	}
	if len(w.Inflight) != 1 {
		t.Fatal("clone delivery mutated original channel")
	}
	if !w.TimerPending(1, "t") {
		t.Fatal("clone timer fire mutated original timers")
	}
}

func TestWorldDigestInsensitiveToInflightOrder(t *testing.T) {
	mk := func(order []int) uint64 {
		w := NewWorld(FirstPolicy, 1)
		w.AddNode(0, &relay{id: 0, n: 1})
		msgs := []*sm.Msg{
			{Src: 0, Dst: 0, Kind: "a", Body: 1},
			{Src: 0, Dst: 0, Kind: "b", Body: 2},
			{Src: 0, Dst: 0, Kind: "c", Body: 3},
		}
		for _, i := range order {
			w.InjectMessage(msgs[i])
		}
		return w.Digest()
	}
	if mk([]int{0, 1, 2}) != mk([]int{2, 0, 1}) {
		t.Fatal("world digest depends on in-flight ordering")
	}
}

func TestWorldDigestSensitiveToState(t *testing.T) {
	w1 := relayWorld(2, 1)
	w2 := relayWorld(2, 1)
	w2.Service(0).(*relay).counter = 5
	if w1.Digest() == w2.Digest() {
		t.Fatal("digests collide across different service states")
	}
}

func TestExploreDeterministic(t *testing.T) {
	run := func() (int, int, float64) {
		w := relayWorld(5, 4)
		x := NewExplorer(6)
		x.Objective = ObjectiveFunc{ObjectiveName: "sum", Fn: func(w *World) float64 {
			total := 0.0
			for _, id := range w.Nodes() {
				total += float64(w.Service(id).(*relay).counter)
			}
			return total
		}}
		r := x.Explore(w)
		return r.StatesExplored, r.MaxDepth, r.MeanScore
	}
	s1, d1, m1 := run()
	s2, d2, m2 := run()
	if s1 != s2 || d1 != d2 || m1 != m2 {
		t.Fatalf("exploration nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", s1, d1, m1, s2, d2, m2)
	}
}

// Property: exploration never mutates the start world, for arbitrary hop
// counts and node counts.
func TestExploreImmutabilityProperty(t *testing.T) {
	f := func(n, hops uint8) bool {
		nn := int(n%6) + 2
		hh := int(hops % 8)
		w := relayWorld(nn, hh)
		before := w.Digest()
		x := NewExplorer(5)
		x.Explore(w)
		return w.Digest() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPolicyWithinBounds(t *testing.T) {
	w := NewWorld(RandomPolicy(rand.New(rand.NewSource(3))), 1)
	env := &worldEnv{w: w, id: 0}
	for i := 0; i < 100; i++ {
		got := env.Choose(sm.Choice{Name: "x", N: 3})
		if got < 0 || got > 2 {
			t.Fatalf("choice out of bounds: %d", got)
		}
	}
}

func BenchmarkExploreDepth4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := relayWorld(8, 16)
		x := NewExplorer(4)
		x.Explore(w)
	}
}

func TestFireTimerOnDownNode(t *testing.T) {
	w := NewWorld(FirstPolicy, 1)
	w.AddNode(0, &relay{id: 0, n: 1})
	w.SetTimerPending(0, "t")
	w.SetDown(0, true)
	out := w.FireTimer(0, "t")
	if out != nil {
		t.Fatal("down node's timer produced messages")
	}
	if w.TimerPending(0, "t") {
		t.Fatal("timer not consumed")
	}
}

func TestFindInflight(t *testing.T) {
	w := NewWorld(FirstPolicy, 1)
	w.AddNode(0, &relay{id: 0, n: 1})
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: "a"})
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: "b"})
	if ix := w.FindInflight(func(m *sm.Msg) bool { return m.Kind == "b" }); ix != 1 {
		t.Fatalf("FindInflight = %d, want 1", ix)
	}
	if ix := w.FindInflight(func(m *sm.Msg) bool { return m.Kind == "z" }); ix != -1 {
		t.Fatalf("FindInflight missing = %d, want -1", ix)
	}
}

func TestDeliverToMissingServiceConsumes(t *testing.T) {
	w := NewWorld(FirstPolicy, 1)
	w.AddNode(0, &relay{id: 0, n: 1})
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 7, Kind: "x"}) // 7 unmodeled
	out := w.DeliverMessage(0)
	if out != nil || len(w.Inflight) != 0 {
		t.Fatal("message to unmodeled node should be consumed silently")
	}
}

// dgram sends an unreliable datagram on "go"; the receiver flips a flag.
type dgram struct {
	id  NodeID
	got bool
}

func (d *dgram) Init(env sm.Env) {}
func (d *dgram) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case "go":
		env.SendDatagram(1, "flag", nil, 0)
	case "flag":
		d.got = true
	}
}
func (d *dgram) OnTimer(env sm.Env, name string) {}
func (d *dgram) Clone() sm.Service               { c := *d; return &c }
func (d *dgram) Digest() uint64 {
	return sm.NewHasher().WriteNode(d.id).WriteBool(d.got).Sum()
}

func TestDropBranchesExploresLoss(t *testing.T) {
	mk := func() *World {
		w := NewWorld(FirstPolicy, 1)
		w.AddNode(0, &dgram{id: 0})
		w.AddNode(1, &dgram{id: 1})
		w.InjectMessage(&sm.Msg{Src: 1, Dst: 0, Kind: "go"})
		return w
	}
	// Without drop branches, the datagram always arrives: a property that
	// requires the flag to stay false is always violated at depth 2.
	neverFlag := Property{Name: "never-flag", Check: func(w *World) bool {
		return !w.Service(1).(*dgram).got
	}}
	x := NewExplorer(4)
	x.Properties = []Property{neverFlag}
	if r := x.Explore(mk()); r.Safe() {
		t.Fatal("delivery branch missing")
	}

	// With drop branches, the explorer also visits the future where the
	// datagram is lost. A property requiring the flag to become true must
	// be violated on that branch.
	x = NewExplorer(4)
	x.DropBranches = true
	flagRequired := Property{Name: "flag-required", Check: func(w *World) bool {
		// Only meaningful once the channel drained.
		if len(w.Inflight) > 0 {
			return true
		}
		return w.Service(1).(*dgram).got
	}}
	x.Properties = []Property{flagRequired}
	r := x.Explore(mk())
	found := false
	for _, v := range r.Violations {
		for _, step := range v.Trace {
			if len(step) >= 4 && step[:4] == "drop" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("loss branch not explored: %+v", r.Violations)
	}
}

func TestReliableMessagesNotDropBranched(t *testing.T) {
	w := NewWorld(FirstPolicy, 1)
	w.AddNode(0, &relay{id: 0, n: 1})
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: "ping", Body: 0}) // reliable
	x := NewExplorer(2)
	x.DropBranches = true
	r := x.Explore(w)
	// Exactly: root + one delivery. No drop state.
	if r.StatesExplored != 2 {
		t.Fatalf("states = %d, want 2 (no loss branch for reliable)", r.StatesExplored)
	}
}

// TestExploreStampsElapsed: a run through the scheduler — BFS (the
// benchmark's offline runs read its Elapsed), or more than one worker —
// reports wall-clock time; a one-worker chain, the live lookahead, runs
// inline and leaves it zero, Deadline or not.
func TestExploreStampsElapsed(t *testing.T) {
	w := relayWorld(4, 3)
	for _, tc := range []struct {
		name  string
		set   func(x *Explorer)
		stamp bool
	}{
		{"bfs", func(x *Explorer) { x.Strategy = BFS{} }, true},
		{"chain/workers=4", func(x *Explorer) { x.Workers = 4 }, true},
		{"chain/deadline", func(x *Explorer) { x.Deadline = time.Now().Add(time.Hour) }, false},
		{"chain", func(*Explorer) {}, false},
		{"chain/faults", func(x *Explorer) { x.FaultBudget = 1 }, false},
	} {
		x := NewExplorer(5)
		tc.set(x)
		if r := x.Explore(w); (r.Elapsed > 0) != tc.stamp {
			t.Errorf("%s: Elapsed = %v, want stamped %v", tc.name, r.Elapsed, tc.stamp)
		}
	}
}

// TestParseStrategyNames: the command-line names resolve to the two
// strategies, and any other name — the retired ones included — is an
// error that names it.
func TestParseStrategyNames(t *testing.T) {
	for name, want := range map[string]string{"": "chaindfs", "chaindfs": "chaindfs", "chain": "chaindfs", "bfs": "bfs"} {
		s, err := ParseStrategy(name)
		if err != nil || s.Name() != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %s", name, s, err, want)
		}
	}
	for _, name := range []string{"guided", "bestfirst", "randomwalk", "walk", "bogus"} {
		if s, err := ParseStrategy(name); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want an error naming it", name, s, err)
		}
	}
}
