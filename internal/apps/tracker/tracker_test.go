package tracker

import (
	"math/rand"
	"testing"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

type fakeEnv struct {
	id     sm.NodeID
	rng    *rand.Rand
	sent   []*sm.Msg
	choose func(c sm.Choice) int
}

func newFakeEnv(id sm.NodeID) *fakeEnv {
	return &fakeEnv{id: id, rng: rand.New(rand.NewSource(1))}
}

func (e *fakeEnv) ID() sm.NodeID       { return e.id }
func (e *fakeEnv) Now() time.Duration  { return 0 }
func (e *fakeEnv) Rand() *rand.Rand    { return e.rng }
func (e *fakeEnv) Logf(string, ...any) {}
func (e *fakeEnv) Send(dst sm.NodeID, kind string, body any, size int) {
	e.sent = append(e.sent, &sm.Msg{Src: e.id, Dst: dst, Kind: kind, Body: body, Size: size})
}
func (e *fakeEnv) SendDatagram(dst sm.NodeID, kind string, body any, size int) {
	e.Send(dst, kind, body, size)
}
func (e *fakeEnv) SetTimer(string, time.Duration) {}
func (e *fakeEnv) CancelTimer(string)             {}
func (e *fakeEnv) Choose(c sm.Choice) int {
	if e.choose != nil {
		return e.choose(c)
	}
	return 0
}

func register(t *Tracker, env *fakeEnv, ids ...sm.NodeID) {
	for _, id := range ids {
		t.OnMessage(env, &sm.Msg{Src: id, Kind: KindRegister, Body: Register{}})
	}
}

func TestRegisterAndServe(t *testing.T) {
	tr := New(99)
	env := newFakeEnv(99)
	register(tr, env, 1, 2, 3)
	tr.OnMessage(env, &sm.Msg{Src: 1, Kind: KindGetPeers, Body: GetPeers{K: 2}})
	// Grants: AddPeers to requester + one reverse introduction per grant.
	var toReq *sm.Msg
	reverse := 0
	for _, m := range env.sent {
		if m.Kind != dissem.KindAddPeers {
			t.Fatalf("unexpected kind %s", m.Kind)
		}
		if m.Dst == 1 {
			toReq = m
		} else {
			reverse++
		}
	}
	if toReq == nil {
		t.Fatal("no grant sent to requester")
	}
	got := toReq.Body.(dissem.AddPeers).Peers
	if len(got) != 2 {
		t.Fatalf("granted %d peers, want 2", len(got))
	}
	for _, g := range got {
		if g == 1 {
			t.Fatal("tracker introduced the requester to itself")
		}
	}
	if reverse != 2 {
		t.Fatalf("reverse introductions = %d, want 2", reverse)
	}
}

func TestServeExposesChoicePerSlot(t *testing.T) {
	tr := New(99)
	env := newFakeEnv(99)
	register(tr, env, 1, 2, 3, 4)
	var sizes []int
	env.choose = func(c sm.Choice) int {
		if c.Name != "tr.grant" {
			t.Fatalf("choice name %q", c.Name)
		}
		sizes = append(sizes, c.N)
		return 0
	}
	tr.OnMessage(env, &sm.Msg{Src: 4, Kind: KindGetPeers, Body: GetPeers{K: 2}})
	// Candidate pool shrinks as slots are granted: 3 then 2.
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 2 {
		t.Fatalf("choice sizes = %v", sizes)
	}
	if tr.Candidates != nil {
		t.Fatal("candidate scratch state not cleared after serve")
	}
}

func TestServeMoreThanRegistered(t *testing.T) {
	tr := New(99)
	env := newFakeEnv(99)
	register(tr, env, 1)
	tr.OnMessage(env, &sm.Msg{Src: 2, Kind: KindGetPeers, Body: GetPeers{K: 10}})
	// Only node 1 is grantable (requester 2 was never registered here).
	var granted []sm.NodeID
	for _, m := range env.sent {
		if m.Dst == 2 {
			granted = m.Body.(dissem.AddPeers).Peers
		}
	}
	if len(granted) != 1 || granted[0] != 1 {
		t.Fatalf("granted = %v", granted)
	}
}

func TestConnDownDeregisters(t *testing.T) {
	tr := New(99)
	env := newFakeEnv(99)
	register(tr, env, 1, 2)
	tr.OnConnDown(env, 1)
	if tr.Registered[1] {
		t.Fatal("dead peer still registered")
	}
	if !tr.Registered[2] {
		t.Fatal("unrelated peer deregistered")
	}
}

func TestCloneDeep(t *testing.T) {
	tr := New(99)
	env := newFakeEnv(99)
	register(tr, env, 1)
	c := tr.Clone().(*Tracker)
	c.Registered[5] = true
	if tr.Registered[5] {
		t.Fatal("clone shares registry")
	}
}

// TestRegistryProperty pins the safety property scenario specs steer
// over: the registry of a 4-peer swarm (tracker at ID 4) may hold peers
// 0..3 only.
func TestRegistryProperty(t *testing.T) {
	const peers = 4
	cases := []struct {
		name       string
		registered []sm.NodeID
		want       bool
	}{
		{"empty registry", nil, true},
		{"every peer enrolled", []sm.NodeID{0, 1, 2, 3}, true},
		{"tracker registered itself", []sm.NodeID{0, 1, peers}, false},
		{"id past the deployment", []sm.NodeID{0, peers + 3}, false},
		{"negative id", []sm.NodeID{-1}, false},
	}
	prop := RegistryProperty(peers)
	for _, tc := range cases {
		tr := New(peers)
		register(tr, newFakeEnv(peers), tc.registered...)
		w := explore.NewWorld(explore.FirstPolicy, 1)
		w.AddNode(0, dissem.New(0, nil, 4, 1024, false)) // non-tracker nodes are skipped
		w.AddNode(peers, tr)
		if got := prop.Check(w); got != tc.want {
			t.Errorf("%s: property = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// --- integration (experiment E9, the P4P example) ---

func TestE9LocalityReducesCrossISPTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	frac := map[Policy]float64{}
	completion := map[Policy]time.Duration{}
	for _, p := range Policies {
		var f float64
		var c time.Duration
		for seed := int64(1); seed <= 3; seed++ {
			r := Run(ExperimentConfig{Seed: seed, Policy: p})
			if r.Completed != r.Peers {
				t.Fatalf("%s seed %d: completed %d/%d", p, seed, r.Completed, r.Peers)
			}
			f += r.CrossFraction()
			c += r.MeanCompletion
		}
		frac[p] = f / 3
		completion[p] = c / 3
	}
	// Shape: locality must cut cross-ISP traffic substantially (P4P's
	// point) without hurting completion time by more than 25%.
	if frac[PolicyLocality] > frac[PolicyRandom]*0.8 {
		t.Errorf("locality cross-ISP %.1f%% not well below random %.1f%%",
			frac[PolicyLocality]*100, frac[PolicyRandom]*100)
	}
	if float64(completion[PolicyLocality]) > float64(completion[PolicyRandom])*1.25 {
		t.Errorf("locality completion %v degraded vs random %v",
			completion[PolicyLocality], completion[PolicyRandom])
	}
}
