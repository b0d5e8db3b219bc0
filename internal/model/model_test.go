package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
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

// TestNetEstimatorDenseMatchesMap drives the estimator and a map-keyed
// reference — its form before the dense table — with the same random
// samples, at IDs in the table, past it and negative, and compares Known,
// Estimate and Latency after each.
func TestNetEstimatorDenseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := []NodeID{-3, -1, 0, 1, 2, 7, 63, nearIDs - 1, nearIDs, nearIDs + 5, 1 << 20}
	probes := append(slices.Clone(ids), 3, 500, -7)
	e := NewNetEstimator()
	alpha, tau := e.Alpha, e.ConfidenceTau
	ref := make(map[NodeID]*PeerEstimate)
	peer := func(id NodeID) *PeerEstimate {
		if ref[id] == nil {
			ref[id] = &PeerEstimate{}
		}
		return ref[id]
	}
	for step := 0; step < 4000; step++ {
		id := ids[rng.Intn(len(ids))]
		now := time.Duration(step) * time.Millisecond
		switch rng.Intn(3) {
		case 0:
			d := time.Duration(rng.Intn(200)) * time.Millisecond
			e.ObserveLatency(id, d, now)
			p := peer(id)
			if p.Samples == 0 || p.Latency == 0 {
				p.Latency = d
			} else {
				p.Latency = time.Duration(float64(p.Latency)*(1-alpha) + float64(d)*alpha)
			}
			p.Samples++
			p.LastUpdate = now
		case 1:
			bps := float64(rng.Intn(3)-1) * 1000 // non-positive samples are ignored
			e.ObserveBandwidth(id, bps, now)
			if bps > 0 {
				p := peer(id)
				if p.BandwidthBps == 0 {
					p.BandwidthBps = bps
				} else {
					p.BandwidthBps = p.BandwidthBps*(1-alpha) + bps*alpha
				}
				p.Samples++
				p.LastUpdate = now
			}
		case 2:
			lost := rng.Intn(2) == 0
			e.ObserveLoss(id, lost, now)
			p := peer(id)
			sample := 0.0
			if lost {
				sample = 1
			}
			p.Loss = p.Loss*(1-alpha) + sample*alpha
			p.Samples++
			p.LastUpdate = now
		}
		var known []NodeID
		for id, p := range ref {
			if p.Samples > 0 {
				known = append(known, id)
			}
		}
		slices.Sort(known)
		if got := e.Known(); !slices.Equal(got, known) {
			t.Fatalf("step %d: Known() = %v, want %v", step, got, known)
		}
		for _, id := range probes {
			var want PeerEstimate
			var conf float64
			p := ref[id]
			ok := p != nil && p.Samples > 0
			wantLat := 42 * time.Millisecond
			if ok {
				want = *p
				conf = math.Exp(-float64(now-p.LastUpdate) / float64(tau))
				if p.Latency > 0 {
					wantLat = p.Latency
				}
			}
			if got, gc, gok := e.Estimate(id, now); got != want || gc != conf || gok != ok {
				t.Fatalf("step %d: Estimate(%v) = %+v %v %v, want %+v %v %v", step, id, got, gc, gok, want, conf, ok)
			}
			if got := e.Latency(id, 42*time.Millisecond); got != wantLat {
				t.Fatalf("step %d: Latency(%v) = %v, want %v", step, id, got, wantLat)
			}
		}
	}
}

func TestStateModelFreshnessRules(t *testing.T) {
	e5 := StateEntry{At: time.Second, Epoch: 5}
	if e5.Fresher(e5) || !e5.Fresher(StateEntry{At: 2 * time.Second, Epoch: 3}) ||
		!e5.Fresher(StateEntry{At: 0, Epoch: 5}) || e5.Fresher(StateEntry{At: 0, Epoch: 6}) {
		t.Fatal("Fresher disagrees with the rules below")
	}
	m := NewStateModel()
	m.Update(1, &stub{id: 1, val: 1}, time.Second, 5)
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
	again := &stub{id: 1, val: 5}
	m.Update(1, again, time.Second, 6) // equally fresh: accept, as handed over
	if e, _ := m.Get(1); e.State != again {
		t.Fatal("an equally fresh checkpoint did not replace the entry")
	}
}

func TestStateModelAgeAndForget(t *testing.T) {
	m := NewStateModel()
	m.Update(2, &stub{id: 2}, time.Second, 1)
	m.Update(3, &stub{id: 3}, time.Second, 1)
	age, ok := m.Age(2, 5*time.Second)
	if !ok || age != 4*time.Second {
		t.Fatalf("age = %v, %v", age, ok)
	}
	m.Forget(2)
	if _, ok := m.Get(2); ok {
		t.Fatal("Forget left the entry")
	}
	if !slices.Equal(m.Known(), []NodeID{3}) {
		t.Fatalf("Known() = %v after Forget(2), want [3]", m.Known())
	}
}

func TestBuildWorld(t *testing.T) {
	m := New(0)
	remote := &stub{id: 1, val: 7}
	m.State.Update(1, remote, time.Second, 1)
	m.State.Update(2, &stub{id: 2, val: 8}, time.Second, 1)
	self := &stub{id: 0, val: 9}
	w := m.BuildWorld(self, 3*time.Second, explore.FirstPolicy, 11)
	if len(w.Nodes()) != 3 {
		t.Fatalf("world has %d nodes, want 3", len(w.Nodes()))
	}
	if w.Now != 3*time.Second {
		t.Fatalf("world time = %v", w.Now)
	}
}

// buildWorldFromScratch is BuildWorld as it was before the model kept a
// standing world: a fresh world holding a clone of every fresh entry. It
// is what every fork of the standing world must be indistinguishable from.
func buildWorldFromScratch(m *Model, selfState sm.Service, now time.Duration, policy explore.ChoicePolicy, seed int64) *explore.World {
	w := explore.NewWorld(policy, seed)
	w.Now = now
	w.AddNode(m.Owner, selfState)
	for id, e := range m.State.entries {
		if id == m.Owner {
			continue
		}
		if m.MaxAge > 0 && now-e.At > m.MaxAge {
			continue
		}
		w.AddNode(id, e.State.Clone())
	}
	hasEntry := func(id sm.NodeID) bool {
		e, ok := m.State.entries[id]
		return ok && (m.MaxAge <= 0 || now-e.At <= m.MaxAge)
	}
	w.Recovery = func(id sm.NodeID) sm.Service {
		if !hasEntry(id) {
			return nil
		}
		return m.State.entries[id].State.Clone()
	}
	w.HasRecovery = hasEntry
	return w
}

// flood is a service every delivery writes: it counts the message, arms a
// timer and sends one on to each of its peers, so a lookahead a few levels
// deep runs a handler on every node of its world. An instance the model
// retains is marked, and a handler run on a marked instance is the bug the
// standing world must not have: it borrows the model's entries.
type flood struct {
	id, n    NodeID
	val      int
	retained bool
}

var (
	wroteRetained atomic.Int32
	floodWrote    atomic.Uint64 // bit id: a handler ran on some copy of node id
)

func (s *flood) Init(sm.Env)            {}
func (s *flood) OnTimer(sm.Env, string) {}
func (s *flood) OnMessage(env sm.Env, _ *sm.Msg) {
	if s.retained {
		wroteRetained.Add(1)
	}
	floodWrote.Or(1 << uint(s.id))
	s.val++
	env.SetTimer("seen", time.Second)
	for j := NodeID(0); j < s.n; j++ {
		if j != s.id {
			env.Send(j, "flood", nil, 0)
		}
	}
}
func (s *flood) Clone() sm.Service { c := *s; c.retained = false; return &c }
func (s *flood) Digest() uint64 {
	return sm.NewHasher().WriteNode(s.id).WriteInt(int64(s.val)).Sum()
}

// sameWorld fails unless got, a fork of the standing world, answers like
// want, the from-scratch build of the same model at the same instant.
func sameWorld(t *testing.T, what string, n NodeID, got, want *explore.World) {
	t.Helper()
	if got.Digest() != want.DigestFull() || got.DigestFull() != want.DigestFull() {
		t.Fatalf("%s: digest %x, from scratch %x, reference %x", what, got.Digest(), got.DigestFull(), want.DigestFull())
	}
	if !slices.Equal(got.Nodes(), want.Nodes()) {
		t.Fatalf("%s: nodes %v, reference %v", what, got.Nodes(), want.Nodes())
	}
	if got.Seed != want.Seed || got.Now != want.Now {
		t.Fatalf("%s: seed %d at %v, reference %d at %v", what, got.Seed, got.Now, want.Seed, want.Now)
	}
	for _, id := range want.Nodes() {
		if !slices.Equal(got.PendingTimers(id), want.PendingTimers(id)) || got.IsDown(id) != want.IsDown(id) {
			t.Fatalf("%s: node %v has timers %v down %v, reference %v %v", what, id, got.PendingTimers(id), got.IsDown(id), want.PendingTimers(id), want.IsDown(id))
		}
		if got.Service(id).Digest() != want.Service(id).Digest() {
			t.Fatalf("%s: node %v holds another state than the reference", what, id)
		}
	}
	for id := NodeID(0); id <= n; id++ { // n itself: a node nobody knows
		if got.HasRecovery(id) != want.HasRecovery(id) {
			t.Fatalf("%s: HasRecovery(%v) = %v, reference %v", what, id, got.HasRecovery(id), want.HasRecovery(id))
		}
		g, w := got.Recovery(id), want.Recovery(id)
		if (g == nil) != (w == nil) || (g != nil && g.Digest() != w.Digest()) {
			t.Fatalf("%s: Recovery(%v) = %v, reference %v", what, id, g, w)
		}
	}
}

// TestStandingWorldMatchesFromScratch is the equivalence oracle of the
// standing world: over seeded random histories of checkpoints arriving
// (fresh, stale, and too old to model), peers forgotten, time moving across
// MaxAge in both directions, MaxAge itself changing and the owner's state
// moving on, every world BuildWorld hands out equals the from-scratch
// build; a world handed out earlier is not moved by what the model learns
// later; and an exploration that writes every node of a fork writes no
// entry of the model. Run with -race: workers fork one root concurrently.
func TestStandingWorldMatchesFromScratch(t *testing.T) {
	const n, maxAge = NodeID(6), 4 * time.Second
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(NodeID(rng.Intn(int(n))))
		m.MaxAge = maxAge
		now := 10 * time.Second
		self := &flood{id: m.Owner, n: n}
		retained := map[NodeID]uint64{} // digest of each entry when the model took it
		var kept *explore.World         // a world handed out at the last check, and the reference's digest then
		var keptDigest uint64
		for step := 0; step < 400; step++ {
			id := NodeID(rng.Intn(int(n)))
			cur, _ := m.State.Get(id)
			svc := &flood{id: id, n: n, val: rng.Intn(1000), retained: true}
			at, epoch := now-time.Duration(rng.Int63n(int64(time.Second))), cur.Epoch
			switch op := rng.Intn(12); op {
			case 0, 1, 2, 3: // a fresher checkpoint
			case 4: // one the model must drop
				at = cur.At - time.Second
			case 5: // a restarted peer whose checkpoint is already too old to model
				at, epoch = now-maxAge-time.Second, epoch+1
			case 6:
				m.State.Forget(id)
				delete(retained, id)
				continue
			case 7:
				now += time.Duration(rng.Int63n(int64(maxAge) * 3 / 2))
				continue
			case 8: // a lookahead dated before the last one
				now -= time.Duration(rng.Int63n(int64(maxAge)))
				continue
			case 9:
				m.MaxAge = maxAge - m.MaxAge // off and on again
				continue
			default: // the owner handled an event
				self = &flood{id: m.Owner, n: n, val: self.val + 1}
				continue
			}
			if cur, ok := m.State.Get(id); !ok || !cur.Fresher(StateEntry{At: at, Epoch: epoch}) {
				retained[id] = svc.Digest()
			}
			m.State.Update(id, svc, at, epoch)

			what := fmt.Sprintf("seed %d step %d", seed, step)
			ref := buildWorldFromScratch(m, self.Clone(), now, nil, seed+int64(step))
			sameWorld(t, what, n, m.BuildWorld(self.Clone(), now, nil, seed+int64(step)), ref)
			if kept != nil {
				if kept.Digest() != keptDigest || kept.DigestFull() != keptDigest {
					t.Fatalf("%s: a world built earlier moved with the model: digest %x, from scratch %x, was %x",
						what, kept.Digest(), kept.DigestFull(), keptDigest)
				}
				// And it still maintains its digest once written.
				for _, id := range kept.Nodes() {
					kept.InjectMessage(&sm.Msg{Src: id, Dst: id, Kind: "flood"})
				}
				for range kept.Nodes() {
					kept.DeliverMessage(0)
				}
				if kept.Digest() != kept.DigestFull() {
					t.Fatalf("%s: a world built earlier lost its digest: %x, from scratch %x", what, kept.Digest(), kept.DigestFull())
				}
			}
			// Kept undigested: what it shares with the standing world, it
			// shares while the model goes on learning.
			kept, keptDigest = m.BuildWorld(self.Clone(), now, nil, 3), ref.DigestFull()
			if step%8 != 0 {
				continue
			}
			// Explore a second fork, two roots so that two workers run.
			look := m.BuildWorld(self.Clone(), now, nil, 1)
			look.InjectMessage(&sm.Msg{Src: m.Owner, Dst: m.Owner, Kind: "flood"})
			look.InjectMessage(&sm.Msg{Src: m.Owner, Dst: look.Nodes()[len(look.Nodes())-1], Kind: "flood"})
			floodWrote.Store(0)
			x := explore.NewExplorer(3)
			x.Workers = 1 + step/8%2
			x.MaxStates = 1 << 12
			x.Explore(look)
			var all uint64
			for _, id := range look.Nodes() {
				all |= 1 << uint(id)
			}
			if got := floodWrote.Load(); got != all {
				t.Fatalf("%s: handlers ran on nodes %b of %b: the exploration is too small to mean anything", what, got, all)
			}
			if wroteRetained.Load() != 0 {
				t.Fatalf("%s: a handler ran on a state the model retains", what)
			}
			for id, d := range retained {
				if e, _ := m.State.Get(id); e.State.Digest() != d {
					t.Fatalf("%s: the model's entry for %v changed under an exploration", what, id)
				}
			}
			sameWorld(t, what+" after exploring", n, m.BuildWorld(self.Clone(), now, nil, 2), buildWorldFromScratch(m, self.Clone(), now, nil, 2))
		}
	}
}

func TestBuildWorldSelfNotDuplicated(t *testing.T) {
	m := New(0)
	m.State.Update(0, &stub{id: 0, val: 1}, time.Second, 1) // stale self entry
	self := &stub{id: 0, val: 99}
	w := m.BuildWorld(self, 0, explore.FirstPolicy, 1)
	if w.Service(0).(*stub).val != 99 {
		t.Fatal("stale self checkpoint shadowed the live pre-event state")
	}
}

func TestBuildWorldMaxAgeFilter(t *testing.T) {
	m := New(0)
	m.MaxAge = time.Second
	m.State.Update(1, &stub{id: 1}, 0, 1)                     // age 5s at build: stale
	m.State.Update(2, &stub{id: 2}, 4500*time.Millisecond, 1) // age 0.5s: fresh
	w := m.BuildWorld(&stub{id: 0}, 5*time.Second, explore.FirstPolicy, 1)
	if stale := w.Service(1); stale != nil {
		t.Fatal("stale checkpoint entered the lookahead world")
	}
	if fresh := w.Service(2); fresh == nil {
		t.Fatal("fresh checkpoint excluded from the lookahead world")
	}
	// Without MaxAge, everything is included.
	m.MaxAge = 0
	w = m.BuildWorld(&stub{id: 0}, 5*time.Second, explore.FirstPolicy, 1)
	if len(w.Nodes()) != 3 {
		t.Fatalf("unfiltered world has %d nodes, want 3", len(w.Nodes()))
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
