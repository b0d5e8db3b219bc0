package core

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// pair builds two nodes running svcs over a uniform 30 ms topology
// without bandwidth limits.
func pair(cfg Config, svcs ...sm.Service) (*sim.Engine, *Cluster) {
	eng := sim.NewEngine(3)
	cl := NewCluster(eng, transport.New(eng, netmodel.Uniform(2, 30*time.Millisecond, 0, 0)), cfg)
	for i, svc := range svcs {
		cl.AddNode(NodeID(i), svc)
	}
	cl.Start()
	return eng, cl
}

// Cost-shape gate (make bench-alloc): a message costs one heap object
// from liveEnv.Send to Service.OnMessage — the delivery record, which is
// the transport's message, the simulator event and the service's sm.Msg
// at once.
func TestDeliveryAllocs(t *testing.T) {
	handled := 0
	eng, cl := pair(Config{}, &probeSvc{}, &probeSvc{onMsg: func(*sm.Msg) { handled++ }})
	env := cl.Node(0).env()
	allocs := testing.AllocsPerRun(1000, func() {
		env.Send(1, "probe", nil, 8)
		eng.Step()
	})
	if handled != 1001 {
		t.Fatalf("handler ran %d times, want 1001", handled)
	}
	if allocs != 1 {
		t.Fatalf("Send+Step+OnMessage allocates %v objects, want 1", allocs)
	}
	// A message in flight is the record alone: keep it in the allocator's
	// 160-byte size class, which live_heap_mb sees on every workload.
	if size := unsafe.Sizeof(delivery{}); size > 160 {
		t.Fatalf("delivery record is %d B, want <= 160", size)
	}
}

// The passive network model measures latency from the send instant: with
// a capped uplink a sized message's sample includes its wait in the
// upload queue, and without one it is the path latency.
func TestLatencySampleFromSendInstant(t *testing.T) {
	for _, tc := range []struct {
		uploadBps float64
		want      time.Duration
	}{
		{0, 30 * time.Millisecond},
		// 1000 B (envelope included) through a 1000 B/s uplink: 1 s.
		{1000, time.Second + 30*time.Millisecond},
	} {
		eng, cl := pair(Config{}, &balSvc{id: 0}, &balSvc{id: 1})
		cl.Network().SetUploadCapacity(0, tc.uploadBps)
		cl.Node(0).env().Send(1, "load", 1, 1000-envelopeOverhead)
		eng.RunFor(2 * time.Second)
		est, _, ok := cl.Node(1).Model().Net.Estimate(0, time.Duration(eng.Now()))
		if !ok || est.Samples != 1 || est.Latency != tc.want {
			t.Fatalf("upload cap %v B/s: sample %v over %d samples, want %v over 1", tc.uploadBps, est.Latency, est.Samples, tc.want)
		}
	}
}

// nester is a service whose "outer" handler dispatches other events on
// its live node before it resolves a choice or panics. Its clones, which
// lookahead worlds run, have no live node and dispatch nothing.
type nester struct {
	probeSvc
	node  func() *Node
	panic bool
}

func (s *nester) OnMessage(env sm.Env, m *sm.Msg) {
	if m.Kind != "outer" {
		env.Choose(sm.Choice{Name: "inner", N: 2})
		return
	}
	if s.node != nil {
		n := s.node()
		n.Inject("inner", nil, 0)
		n.SendApp(n.ID(), "later", nil, 0)
	}
	if s.panic {
		panic("outer")
	}
	env.Choose(sm.Choice{Name: "outer", N: 2})
}

func (s *nester) Clone() sm.Service { c := *s; c.node = nil; return &c }

// A handler that injects a message to its own node, and sends one, before
// it resolves a choice: the resolver still sees the outer event — its
// label, its scenario key, the message it replays into a lookahead world —
// and once the outer dispatch returns the node pins no message.
func TestNestedDispatchKeepsOuterEvent(t *testing.T) {
	var cl *Cluster
	var seen []string
	check := resolverFunc(func(n *Node, c sm.Choice) int {
		seen = append(seen, c.Name+"@"+n.event.label())
		if c.Name != "outer" {
			return 0
		}
		want := pendingEvent{msg: &sm.Msg{Kind: "outer"}}
		if scenarioKey(c, &n.event) != scenarioKey(c, &want) {
			t.Error("scenario key does not describe the outer event")
		}
		w := explore.NewWorld(explore.FirstPolicy, 1)
		w.AddNode(n.id, n.svc.Clone())
		n.event.injectInto(w, n.id)
		if w.FindInflight(func(m *sm.Msg) bool { return m.Kind == "outer" }) < 0 {
			t.Error("the replayed event is not the outer message")
		}
		return 0
	})
	svc := &nester{node: func() *Node { return cl.Node(0) }}
	var eng *sim.Engine
	eng, cl = pair(Config{NewResolver: func(*Node) Resolver { return check }}, svc, &probeSvc{})
	cl.Node(1).SendApp(0, "outer", nil, 0)
	eng.RunFor(time.Second)
	want := []string{"inner@m:inner", "outer@m:outer", "inner@m:later"}
	if !slices.Equal(seen, want) {
		t.Fatalf("choices %v, want %v", seen, want)
	}
	if n := cl.Node(0); n.event != (pendingEvent{}) || n.preEventState != nil {
		t.Fatalf("after dispatch the node still holds event %+v", n.event)
	}
}

// The predictive resolver of the outer event keeps its pre-event state
// across a nested dispatch: every choice is predicted, none falls back to
// a random pick for want of a base state.
func TestNestedDispatchKeepsPreEventState(t *testing.T) {
	var cl *Cluster
	svc := &nester{node: func() *Node { return cl.Node(0) }}
	var eng *sim.Engine
	eng, cl = pair(Config{NewResolver: func(*Node) Resolver { return NewPredictive(2) }}, svc, &probeSvc{})
	cl.Node(1).SendApp(0, "outer", nil, 0)
	eng.RunFor(time.Second)
	if st := cl.Node(0).Stats(); st.Choices != 3 || st.CacheHits+st.CacheMisses != 3 {
		t.Fatalf("%d choices, %d decision-cache lookups; want 3 and 3", st.Choices, st.CacheHits+st.CacheMisses)
	}
}

// A panic contained after a nested dispatch is labeled with the event
// whose handler panicked, not the nested one.
func TestNestedDispatchPanicLabelsOuterEvent(t *testing.T) {
	var cl *Cluster
	svc := &nester{node: func() *Node { return cl.Node(0) }, panic: true}
	var eng *sim.Engine
	eng, cl = pair(Config{ContainPanics: true}, svc, &probeSvc{})
	cl.Node(1).SendApp(0, "outer", nil, 0)
	eng.RunFor(time.Second)
	p := cl.Panics()
	if len(p) != 1 || p[0].Node != 0 || p[0].Event != "m:outer" {
		t.Fatalf("panics %+v, want one on node0 labeled m:outer", p)
	}
	if n := cl.Node(0); !n.Down() || n.event != (pendingEvent{}) {
		t.Fatalf("down=%v event=%+v after a contained panic", n.Down(), n.event)
	}
}
