package model

import (
	"testing"
	"time"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

type stub struct {
	id  NodeID
	val int
}

func (s *stub) Init(sm.Env)               {}
func (s *stub) OnMessage(sm.Env, *sm.Msg) {}
func (s *stub) OnTimer(sm.Env, string)    {}
func (s *stub) Clone() sm.Service         { c := *s; return &c }
func (s *stub) Digest() uint64 {
	return sm.NewHasher().WriteNode(s.id).WriteInt(int64(s.val)).Sum()
}

func TestLatencyEWMA(t *testing.T) {
	e := NewNetEstimator()
	e.ObserveLatency(1, 100*time.Millisecond, 0)
	if got := e.Latency(1, 0); got != 100*time.Millisecond {
		t.Fatalf("first sample should seed estimate, got %v", got)
	}
	e.ObserveLatency(1, 200*time.Millisecond, time.Second)
	got := e.Latency(1, 0)
	if got <= 100*time.Millisecond || got >= 200*time.Millisecond {
		t.Fatalf("EWMA should land between samples, got %v", got)
	}
	// Alpha=0.25: 100*0.75 + 200*0.25 = 125ms.
	if got != 125*time.Millisecond {
		t.Fatalf("EWMA = %v, want 125ms", got)
	}
}

func TestLatencyDefault(t *testing.T) {
	e := NewNetEstimator()
	if got := e.Latency(9, 42*time.Millisecond); got != 42*time.Millisecond {
		t.Fatalf("unknown peer should yield default, got %v", got)
	}
}

func TestConfidenceDecays(t *testing.T) {
	e := NewNetEstimator()
	e.ObserveLatency(1, time.Millisecond, 0)
	_, cFresh, ok := e.Estimate(1, 0)
	if !ok || cFresh < 0.99 {
		t.Fatalf("fresh confidence = %v", cFresh)
	}
	_, cStale, _ := e.Estimate(1, 2*time.Minute)
	if cStale >= cFresh/2 {
		t.Fatalf("confidence did not decay: fresh %v stale %v", cFresh, cStale)
	}
}

func TestEstimateUnknown(t *testing.T) {
	e := NewNetEstimator()
	if _, _, ok := e.Estimate(3, 0); ok {
		t.Fatal("estimate for unseen peer reported ok")
	}
}

func TestLossEWMA(t *testing.T) {
	e := NewNetEstimator()
	for i := 0; i < 50; i++ {
		e.ObserveLoss(1, i%2 == 0, 0)
	}
	p, _, _ := e.Estimate(1, 0)
	if p.Loss < 0.2 || p.Loss > 0.8 {
		t.Fatalf("alternating loss should estimate near 0.5, got %v", p.Loss)
	}
}

func TestBandwidthIgnoresNonPositive(t *testing.T) {
	e := NewNetEstimator()
	e.ObserveBandwidth(1, 0, 0)
	e.ObserveBandwidth(1, -5, 0)
	if _, _, ok := e.Estimate(1, 0); ok {
		t.Fatal("non-positive bandwidth samples should be ignored")
	}
	e.ObserveBandwidth(1, 1000, 0)
	p, _, _ := e.Estimate(1, 0)
	if p.BandwidthBps != 1000 {
		t.Fatalf("bandwidth = %v", p.BandwidthBps)
	}
}

func TestKnownSorted(t *testing.T) {
	e := NewNetEstimator()
	e.ObserveLatency(5, time.Millisecond, 0)
	e.ObserveLatency(1, time.Millisecond, 0)
	e.ObserveLatency(3, time.Millisecond, 0)
	got := e.Known()
	want := []NodeID{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Known() = %v", got)
		}
	}
}

func TestStateModelFreshnessRules(t *testing.T) {
	m := NewStateModel()
	m.Update(1, &stub{id: 1, val: 1}, time.Second, 5)
	if m.Stale(1, time.Second, 5) || !m.Stale(1, 2*time.Second, 3) || m.Stale(2, 0, 0) {
		t.Fatal("Stale disagrees with the rules below")
	}
	m.Update(1, &stub{id: 1, val: 2}, 2*time.Second, 3) // older epoch: reject
	if e, _ := m.Get(1); e.State.(*stub).val != 1 {
		t.Fatal("older epoch replaced newer checkpoint")
	}
	m.Update(1, &stub{id: 1, val: 3}, 3*time.Second, 5) // same epoch, fresher: accept
	if e, _ := m.Get(1); e.State.(*stub).val != 3 {
		t.Fatal("fresher same-epoch checkpoint rejected")
	}
	m.Update(1, &stub{id: 1, val: 4}, time.Second, 6) // newer epoch: accept
	if e, _ := m.Get(1); e.State.(*stub).val != 4 {
		t.Fatal("newer epoch rejected")
	}
}

func TestStateModelAgeAndForget(t *testing.T) {
	m := NewStateModel()
	m.Update(2, &stub{id: 2}, time.Second, 1)
	age, ok := m.Age(2, 5*time.Second)
	if !ok || age != 4*time.Second {
		t.Fatalf("age = %v, %v", age, ok)
	}
	m.Forget(2)
	if _, ok := m.Get(2); ok {
		t.Fatal("Forget left the entry")
	}
}

func TestBuildWorld(t *testing.T) {
	m := New(0)
	remote := &stub{id: 1, val: 7}
	m.State.Update(1, remote, time.Second, 1)
	m.State.Update(2, &stub{id: 2, val: 8}, time.Second, 1)
	self := &stub{id: 0, val: 9}
	w := m.BuildWorld(self, 3*time.Second, explore.FirstPolicy, 11)
	if len(w.Services) != 3 {
		t.Fatalf("world has %d nodes, want 3", len(w.Services))
	}
	if w.Now != 3*time.Second {
		t.Fatalf("world time = %v", w.Now)
	}
	// Neighbor states must be clones: mutating the world must not reach
	// the model's retained checkpoint.
	w.Services[1].(*stub).val = -1
	if e, _ := m.State.Get(1); e.State.(*stub).val != 7 {
		t.Fatal("world shares state with the model")
	}
}

func TestBuildWorldSelfNotDuplicated(t *testing.T) {
	m := New(0)
	m.State.Update(0, &stub{id: 0, val: 1}, time.Second, 1) // stale self entry
	self := &stub{id: 0, val: 99}
	w := m.BuildWorld(self, 0, explore.FirstPolicy, 1)
	if w.Services[0].(*stub).val != 99 {
		t.Fatal("stale self checkpoint shadowed the live pre-event state")
	}
}

func TestBuildWorldMaxAgeFilter(t *testing.T) {
	m := New(0)
	m.MaxAge = time.Second
	m.State.Update(1, &stub{id: 1}, 0, 1)                     // age 5s at build: stale
	m.State.Update(2, &stub{id: 2}, 4500*time.Millisecond, 1) // age 0.5s: fresh
	w := m.BuildWorld(&stub{id: 0}, 5*time.Second, explore.FirstPolicy, 1)
	if _, stale := w.Services[1]; stale {
		t.Fatal("stale checkpoint entered the lookahead world")
	}
	if _, fresh := w.Services[2]; !fresh {
		t.Fatal("fresh checkpoint excluded from the lookahead world")
	}
	// Without MaxAge, everything is included.
	m.MaxAge = 0
	w = m.BuildWorld(&stub{id: 0}, 5*time.Second, explore.FirstPolicy, 1)
	if len(w.Services) != 3 {
		t.Fatalf("unfiltered world has %d nodes, want 3", len(w.Services))
	}
}

func TestBuildWorldRecoveryHook(t *testing.T) {
	m := New(0)
	m.MaxAge = time.Second
	m.State.Update(1, &stub{id: 1, val: 7}, 4500*time.Millisecond, 1) // fresh
	m.State.Update(2, &stub{id: 2, val: 8}, 0, 1)                     // stale at build time
	w := m.BuildWorld(&stub{id: 0}, 5*time.Second, explore.FirstPolicy, 1)
	if w.Recovery == nil {
		t.Fatal("BuildWorld left the recovery hook unset")
	}
	got := w.Recovery(1)
	if got == nil || got.(*stub).val != 7 {
		t.Fatalf("recovery hook did not restore the checkpointed state: %v", got)
	}
	// The hook must hand out clones, never the retained entry itself.
	got.(*stub).val = -1
	if e, _ := m.State.Get(1); e.State.(*stub).val != 7 {
		t.Fatal("recovery hook leaked the model's retained checkpoint")
	}
	if w.Recovery(2) != nil {
		t.Fatal("recovery hook restored a checkpoint older than MaxAge")
	}
	if w.Recovery(9) != nil {
		t.Fatal("recovery hook invented state for an unknown node")
	}
}
