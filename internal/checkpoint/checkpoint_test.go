package checkpoint

import (
	"testing"
	"time"

	"crystalchoice/internal/model"
	"crystalchoice/internal/sm"
)

// stub is a minimal cloneable service for checkpoint tests.
type stub struct {
	id  NodeID
	val int
}

func (s *stub) Init(sm.Env)               {}
func (s *stub) OnMessage(sm.Env, *sm.Msg) {}
func (s *stub) OnTimer(sm.Env, string)    {}
func (s *stub) Clone() sm.Service         { c := *s; return &c }
func (s *stub) Digest() uint64            { return sm.NewHasher().WriteNode(s.id).WriteInt(int64(s.val)).Sum() }

// wire connects managers with synchronous in-test delivery. Requests go to
// the destination's manager; responses go to its state model, the store a
// runtime node keeps them in.
type wire struct {
	managers map[NodeID]*Manager
	stores   map[NodeID]*model.StateModel
	dropTo   map[NodeID]bool
	sent     int
}

func (w *wire) send(src NodeID) SendFunc {
	return func(dst NodeID, kind string, body any, size int) {
		w.sent++
		if w.dropTo[dst] {
			return
		}
		if resp, ok := body.(Response); ok {
			w.stores[dst].Update(src, resp.State, resp.At, resp.Epoch)
			return
		}
		if m := w.managers[dst]; m != nil {
			m.HandleMessage(src, kind, body)
		}
	}
}

func rig(n int) (*wire, map[NodeID]*stub) {
	w := &wire{managers: make(map[NodeID]*Manager), stores: make(map[NodeID]*model.StateModel), dropTo: make(map[NodeID]bool)}
	svcs := make(map[NodeID]*stub)
	now := time.Second
	for i := 0; i < n; i++ {
		id := NodeID(i)
		svc := &stub{id: id, val: 100 + i}
		svcs[id] = svc
		m := NewManager(id)
		m.SelfState = func() sm.Service { return svc.Clone() }
		m.Now = func() time.Duration { return now }
		m.Send = w.send(id)
		all := make([]NodeID, 0, n-1)
		for j := 0; j < n; j++ {
			if NodeID(j) != id {
				all = append(all, NodeID(j))
			}
		}
		m.Neighbors = func() []NodeID { return all }
		w.managers[id] = m
		w.stores[id] = model.NewStateModel()
	}
	return w, svcs
}

// snapshot is node id's neighborhood snapshot as its runtime assembles it.
func (w *wire) snapshot(id NodeID) model.Snapshot {
	m := w.managers[id]
	return w.stores[id].Snapshot(id, m.SelfState(), m.Now(), m.Neighbors())
}

func TestTickCollectsNeighborhood(t *testing.T) {
	w, _ := rig(4)
	m := w.managers[0]
	m.Tick()
	if got := len(w.stores[0].Known()); got != 3 {
		t.Fatalf("retained %d checkpoints, want 3", got)
	}
	s := w.snapshot(0)
	if !s.Complete || s.Epoch != 1 {
		t.Fatalf("snapshot complete=%v at epoch %d after a full round, want true 1", s.Complete, s.Epoch)
	}
	if len(s.States) != 4 {
		t.Fatalf("snapshot has %d states, want 4 (incl. self)", len(s.States))
	}
	if s.States[2].(*stub).val != 102 {
		t.Fatal("checkpoint content wrong")
	}
}

func TestSnapshotStatesAreClones(t *testing.T) {
	w, svcs := rig(2)
	m := w.managers[0]
	m.Tick()
	s := w.snapshot(0)
	s.States[1].(*stub).val = -1
	if svcs[1].val != 101 {
		t.Fatal("snapshot mutation reached the live service")
	}
	// A second snapshot must not see the first one's mutation.
	if w.snapshot(0).States[1].(*stub).val != 101 {
		t.Fatal("snapshots share state clones")
	}
}

func TestIncompleteWhenNeighborSilent(t *testing.T) {
	w, _ := rig(3)
	m := w.managers[0]
	// Drop responses from 2 by dropping requests to it.
	w.dropTo[2] = true
	m.Tick()
	s := w.snapshot(0)
	if s.Complete {
		t.Fatal("snapshot claims completeness with a silent neighbor")
	}
	if _, ok := s.States[1]; !ok {
		t.Fatal("answered neighbor missing from incomplete snapshot")
	}
}

func TestFreshestCheckpointWins(t *testing.T) {
	w, _ := rig(2)
	deliver := w.send(1)
	deliver(0, KindResponse, Response{Epoch: 5, State: &stub{id: 1, val: 5}, At: time.Second}, responseSize)
	deliver(0, KindResponse, Response{Epoch: 3, State: &stub{id: 1, val: 3}, At: 2 * time.Second}, responseSize)
	e, ok := w.stores[0].Get(1)
	if !ok || e.State.(*stub).val != 5 {
		t.Fatal("older epoch overwrote newer checkpoint")
	}
	deliver(0, KindResponse, Response{Epoch: 6, State: &stub{id: 1, val: 6}, At: 3 * time.Second}, responseSize)
	if e, _ := w.stores[0].Get(1); e.State.(*stub).val != 6 {
		t.Fatal("newer epoch not retained")
	}
}

func TestForget(t *testing.T) {
	w, _ := rig(3)
	w.managers[0].Tick()
	w.stores[0].Forget(1)
	if _, ok := w.stores[0].Get(1); ok {
		t.Fatal("Forget did not drop the checkpoint")
	}
	if _, ok := w.stores[0].Get(2); !ok {
		t.Fatal("Forget dropped an unrelated checkpoint")
	}
}

func TestNonCheckpointKindIgnored(t *testing.T) {
	m := NewManager(0)
	if m.HandleMessage(1, "app.join", nil) {
		t.Fatal("manager consumed an application message")
	}
}

func TestNoNeighborsNoTraffic(t *testing.T) {
	w, _ := rig(1)
	m := w.managers[0]
	m.Tick()
	if w.sent != 0 {
		t.Fatalf("tick with no neighbors sent %d messages", w.sent)
	}
	if m.Epoch() != 0 {
		t.Fatal("epoch advanced without neighbors")
	}
}

func TestEpochAdvances(t *testing.T) {
	w, _ := rig(2)
	m := w.managers[0]
	for i := 1; i <= 3; i++ {
		m.Tick()
		if m.Epoch() != uint64(i) {
			t.Fatalf("epoch = %d after %d ticks", m.Epoch(), i)
		}
	}
}

func TestMalformedBodiesConsumedSafely(t *testing.T) {
	m := NewManager(0)
	m.Send = func(NodeID, string, any, int) { t.Fatal("responded to malformed request") }
	if !m.HandleMessage(1, KindRequest, "garbage") {
		t.Fatal("malformed request not consumed")
	}
	// Responses are the receiving node's state model's to integrate.
	if m.HandleMessage(1, KindResponse, Response{Epoch: 1}) {
		t.Fatal("manager consumed a response")
	}
}
