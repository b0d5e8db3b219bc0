package gossip

import (
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

type fakeEnv struct {
	id     sm.NodeID
	now    time.Duration
	rng    *rand.Rand
	sent   []*sm.Msg
	timers map[string]time.Duration
	choose func(c sm.Choice) int
}

func newFakeEnv(id sm.NodeID) *fakeEnv {
	return &fakeEnv{id: id, rng: rand.New(rand.NewSource(1)), timers: make(map[string]time.Duration)}
}

func (e *fakeEnv) ID() sm.NodeID       { return e.id }
func (e *fakeEnv) Now() time.Duration  { return e.now }
func (e *fakeEnv) Rand() *rand.Rand    { return e.rng }
func (e *fakeEnv) Logf(string, ...any) {}
func (e *fakeEnv) Send(dst sm.NodeID, kind string, body any, size int) {
	e.sent = append(e.sent, &sm.Msg{Src: e.id, Dst: dst, Kind: kind, Body: body, Size: size})
}
func (e *fakeEnv) SendDatagram(dst sm.NodeID, kind string, body any, size int) {
	e.Send(dst, kind, body, size)
}
func (e *fakeEnv) SetTimer(name string, d time.Duration) { e.timers[name] = d }
func (e *fakeEnv) CancelTimer(name string)               { delete(e.timers, name) }
func (e *fakeEnv) Choose(c sm.Choice) int {
	if e.choose != nil {
		return e.choose(c)
	}
	return 0
}

func TestRoundSendsDigestToChosenPeer(t *testing.T) {
	p := New(0, []sm.NodeID{1, 2, 3})
	env := newFakeEnv(0)
	p.Init(env)
	env.choose = func(c sm.Choice) int {
		if c.Name != "g.peer" || c.N != 3 {
			t.Fatalf("unexpected choice %+v", c)
		}
		return 2
	}
	p.add(0, 7)
	p.OnTimer(env, timerRound)
	if len(env.sent) != 1 || env.sent[0].Kind != KindDigest || env.sent[0].Dst != 3 {
		t.Fatalf("sent = %+v", env.sent)
	}
	if p.ExchangingWith != 3 {
		t.Fatalf("ExchangingWith = %v", p.ExchangingWith)
	}
	d := env.sent[0].Body.(Digest)
	if len(d.Have) != 1 || d.Have[0] != 7 {
		t.Fatalf("digest = %+v", d)
	}
	if _, ok := env.timers[timerRound]; !ok {
		t.Fatal("round timer not rescheduled")
	}
}

func TestDigestAnswersWithDelta(t *testing.T) {
	p := New(1, []sm.NodeID{0})
	env := newFakeEnv(1)
	p.add(0, 1, 2)
	p.OnMessage(env, &sm.Msg{Src: 0, Kind: KindDigest, Body: Digest{Have: []int{2, 9}}})
	if len(env.sent) != 1 || env.sent[0].Kind != KindDelta {
		t.Fatalf("sent = %v", env.sent)
	}
	d := env.sent[0].Body.(Delta)
	if len(d.Updates) != 1 || d.Updates[0] != 1 {
		t.Fatalf("delta updates = %v, want [1]", d.Updates)
	}
	if len(d.Have) != 2 {
		t.Fatalf("delta should carry own digest, got %v", d.Have)
	}
}

func TestDeltaAbsorbsAndCompletesPull(t *testing.T) {
	p := New(0, []sm.NodeID{1})
	env := newFakeEnv(0)
	p.add(0, 5)
	p.ExchangingWith = 1
	p.OnMessage(env, &sm.Msg{Src: 1, Kind: KindDelta, Body: Delta{Updates: []int{8}, Have: []int{8}}})
	if !p.has(8) {
		t.Fatal("delta update not absorbed")
	}
	if p.Received[8] != env.now {
		t.Fatal("receipt time not logged")
	}
	if p.ExchangingWith != -1 {
		t.Fatal("exchange not closed")
	}
	// Pull half: we hold 5 which the partner lacks.
	if len(env.sent) != 1 || env.sent[0].Kind != KindDelta {
		t.Fatalf("pull half missing: %v", env.sent)
	}
	if got := env.sent[0].Body.(Delta).Updates; len(got) != 1 || got[0] != 5 {
		t.Fatalf("pull delta = %v, want [5]", got)
	}
}

func TestDeltaNoEchoWhenNothingMissing(t *testing.T) {
	p := New(0, []sm.NodeID{1})
	env := newFakeEnv(0)
	p.OnMessage(env, &sm.Msg{Src: 1, Kind: KindDelta, Body: Delta{Updates: []int{3}, Have: []int{3}}})
	if len(env.sent) != 0 {
		t.Fatalf("empty pull should not be sent: %v", env.sent)
	}
}

func TestLearnIdempotent(t *testing.T) {
	p := New(0, nil)
	p.add(time.Second, 3)
	p.add(2*time.Second, 3)
	if p.Received[3] != time.Second {
		t.Fatal("re-learning overwrote first receipt time")
	}
}

// A clone is a snapshot in both directions, though it shares the held
// slice and, until one side writes, the receipt log.
func TestCloneIsolatesWrites(t *testing.T) {
	p := New(0, []sm.NodeID{1})
	p.add(0, 1)
	c := p.Clone().(*Peer)
	c.add(0, 2)
	if p.has(2) || len(p.Received) != 1 {
		t.Fatal("a write to the clone reached the original")
	}
	p.add(0, 3)
	if c.has(3) || len(c.Received) != 2 {
		t.Fatal("a write to the original reached the clone")
	}
	if p.Digest() == c.Digest() {
		t.Fatal("diverged clone digests collide")
	}
}

func TestDigestOrderInsensitive(t *testing.T) {
	a := New(0, []sm.NodeID{1, 2})
	b := New(0, []sm.NodeID{1, 2})
	for _, u := range []int{5, 1, 9} {
		a.add(0, u)
	}
	for _, u := range []int{9, 5, 1} {
		b.add(0, u)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("digest depends on insertion order")
	}
}

func TestRestrictedScheduleCycles(t *testing.T) {
	r := &Restricted{}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, r.Resolve(nil, sm.Choice{Name: "g.peer", N: 3}))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
}

// Property: after any exchange simulated through handlers, the union of
// two peers' update sets is preserved (anti-entropy never loses updates).
func TestExchangePreservesUnionProperty(t *testing.T) {
	f := func(aUpd, bUpd []uint8) bool {
		a, b := New(0, []sm.NodeID{1}), New(1, []sm.NodeID{0})
		union := make(map[int]bool)
		for _, u := range aUpd {
			a.add(0, int(u))
			union[int(u)] = true
		}
		for _, u := range bUpd {
			b.add(0, int(u))
			union[int(u)] = true
		}
		envA, envB := newFakeEnv(0), newFakeEnv(1)
		// a initiates: digest -> b delta -> a absorbs + pull -> b absorbs.
		a.ExchangingWith = 1
		envA.sent = nil
		a.OnTimer(envA, timerRound)
		var digest *sm.Msg
		for _, m := range envA.sent {
			if m.Kind == KindDigest {
				digest = m
			}
		}
		if digest == nil {
			return false // a has a view of one, so its round must send a digest
		}
		b.OnMessage(envB, digest)
		for _, m := range envB.sent {
			if m.Kind == KindDelta {
				a.OnMessage(envA, &sm.Msg{Src: 1, Kind: KindDelta, Body: m.Body})
			}
		}
		for _, m := range envA.sent {
			if m.Kind == KindDelta {
				b.OnMessage(envB, &sm.Msg{Src: 0, Kind: KindDelta, Body: m.Body})
			}
		}
		for u := range union {
			if !a.has(u) || !b.has(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// agedPeer holds updates 0..n-1, learned in one delta.
func agedPeer(n int) *Peer {
	p := New(0, []sm.NodeID{1, 2, 3})
	p.add(0, upTo(n)...)
	return p
}

func upTo(n int) []int {
	us := make([]int, n)
	for i := range us {
		us[i] = i
	}
	return us
}

// lastSendEnv keeps only the body of the last message sent, so sending
// allocates nothing beyond the message itself.
type lastSendEnv struct {
	*fakeEnv
	body any
}

func (e *lastSendEnv) Send(_ sm.NodeID, _ string, body any, _ int) { e.body = body }

// allocsPerRun is testing.AllocsPerRun reporting bytes as well as
// objects, both rounded down like its count.
func allocsPerRun(runs int, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// Cost-shape gate (make bench-alloc): a fork and its digest cost the same
// whatever the number of held updates, answering a delta that brings
// nothing new allocates only the outgoing message, and the first update
// learned after a fork copies the receipt log once — the second does not
// copy it again. Each costs at most a few objects and 256 B, at both sizes:
// less than one copy of the held slice at 64 updates (512 B).
func TestForkCostIndependentOfUpdates(t *testing.T) {
	var sink uint64
	forkAndDigest := func(p *Peer) (uint64, uint64) {
		return allocsPerRun(100, func() { sink += p.Clone().Digest() })
	}
	// The delta repeats updates p holds and advertises all of them but the
	// last, so the answer carries one update.
	forkAndDelta := func(p *Peer) (uint64, uint64) {
		env := &lastSendEnv{fakeEnv: newFakeEnv(0)}
		m := &sm.Msg{Src: 1, Kind: KindDelta, Body: Delta{Updates: p.held[:len(p.held)/2], Have: p.held[:len(p.held)-1]}}
		objs, bytes := allocsPerRun(100, func() { p.Clone().OnMessage(env, m) })
		if got := env.body.(Delta).Updates; len(got) != 1 || got[0] != len(p.held)-1 {
			t.Fatalf("pull half answered %v", got)
		}
		return objs, bytes
	}
	// forkAndLearn learns k new updates on a fork and reports what that
	// allocates beyond one copy of the receipt log and k of the held slice.
	forkAndLearn := func(k int) func(*Peer) (uint64, uint64) {
		return func(p *Peer) (uint64, uint64) {
			n := len(p.held)
			objs, bytes := allocsPerRun(100, func() {
				c := p.Clone().(*Peer)
				for i := 0; i < k; i++ {
					c.add(0, n+i)
				}
				sink += c.Digest()
			})
			mapObjs, mapBytes := allocsPerRun(100, func() { sink += uint64(len(maps.Clone(p.Received))) })
			objs, bytes = objs-mapObjs, bytes-mapBytes
			for i := 1; i <= k; i++ {
				heldObjs, heldBytes := allocsPerRun(100, func() { sink += uint64(cap(make([]int, 0, n+i))) })
				objs, bytes = objs-heldObjs, bytes-heldBytes
			}
			return objs, bytes
		}
	}
	young, old := agedPeer(64), agedPeer(4096)
	if DigestOracle(old) != old.Digest() {
		t.Fatal("aged peer's digest disagrees with its oracle")
	}
	check := func(what string, f func(*Peer) (uint64, uint64), maxObjs uint64) {
		t.Helper()
		const maxBytes = 256
		ao, ab := f(young)
		bo, bb := f(old)
		if ao != bo || bo > maxObjs || ab > maxBytes || bb > maxBytes {
			t.Errorf("%s allocates %d objects / %d B at 64 updates, %d / %d B at 4096: want the same, at most %d objects and %d B",
				what, ao, ab, bo, bb, maxObjs, maxBytes)
		}
		t.Logf("%s: %d objects / %d B at 64 updates, %d / %d B at 4096", what, ao, ab, bo, bb)
	}
	check("Clone+Digest", forkAndDigest, 1)                           // the fork
	check("Clone+Delta", forkAndDelta, 3)                             // the fork, the answer's update list, its body
	check("Clone+learn, less the log copy", forkAndLearn(1), 2)       // the fork, its mark
	check("Clone+learn twice, less the log copy", forkAndLearn(2), 2) // no second copy
}

// Explorer workers fork one frozen peer concurrently (World.ownService
// with Workers > 1) and run handlers on their forks. Run with -race.
func TestConcurrentClonesOfFrozenPeer(t *testing.T) {
	frozen := agedPeer(300)
	want := frozen.Digest()
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := newFakeEnv(0)
			c := frozen.Clone().(*Peer)
			for i := 0; i < 50; i++ {
				c.OnMessage(env, &sm.Msg{Src: 1, Kind: KindDelta, Body: Delta{Updates: []int{1000 + i*g}, Have: []int{i}}})
				c.OnMessage(env, &sm.Msg{Src: 2, Kind: KindDigest, Body: Digest{Have: []int{i, 2 * i}}})
			}
			c.OnMessage(env, &sm.Msg{Src: 3, Kind: KindPublish, Body: Publish{Update: 5000 + g}})
			if len(c.held) != 351 || len(c.Received) != 351 {
				t.Errorf("fork %d holds %d updates, logs %d, want 351", g, len(c.held), len(c.Received))
			}
			if c.Digest() != DigestOracle(c) {
				t.Errorf("fork %d: digest disagrees with its oracle", g)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if frozen.Digest() != want || DigestOracle(frozen) != want {
				t.Error("original changed while its forks were written")
				return
			}
		}
	}()
	wg.Wait()
	if len(frozen.held) != 300 || len(frozen.Received) != 300 {
		t.Fatalf("original holds %d updates, logs %d after the forks", len(frozen.held), len(frozen.Received))
	}
}

// A checkpoint a neighbour's state model retains shares the origin's
// receipt log; publishing at the origin must copy it, not write through.
func TestPublishLeavesRetainedCheckpointUnchanged(t *testing.T) {
	eng := sim.NewEngine(1)
	net := transport.New(eng, netmodel.Uniform(4, 10*time.Millisecond, 1<<20, 0))
	cl := core.NewCluster(eng, net, core.Config{
		NewResolver:        func(*core.Node) core.Resolver { return core.Random{} },
		CheckpointInterval: 50 * time.Millisecond,
	})
	Deploy(cl, 4)
	cl.Start()
	PublishUpdate(cl, 0, 1)
	eng.RunFor(2 * time.Second)
	e, ok := cl.Node(1).Model().State.Get(0)
	if !ok {
		t.Fatal("node 1 retains no checkpoint of node 0")
	}
	retained, live := e.State.(*Peer), cl.Node(0).Service().(*Peer)
	if reflect.ValueOf(retained.Received).UnsafePointer() != reflect.ValueOf(live.Received).UnsafePointer() {
		t.Fatal("precondition: the retained checkpoint does not share node 0's receipt log")
	}
	before := retained.Digest()
	PublishUpdate(cl, 0, 2)
	if !live.has(2) {
		t.Fatal("publish did not reach node 0")
	}
	if _, leaked := retained.Received[2]; leaked || retained.has(2) || retained.Digest() != before {
		t.Fatal("publishing at node 0 changed the checkpoint node 1 retains")
	}
}

// --- integration (experiment E5) ---

func TestAllStrategiesAchieveCoverage(t *testing.T) {
	for _, s := range Strategies {
		r := Run(ExperimentConfig{N: 12, Seed: 4, Strategy: s, Updates: 4})
		if r.Covered != r.Published {
			t.Errorf("%s: covered %d/%d", s, r.Covered, r.Published)
		}
		if r.MeanDissemination <= 0 {
			t.Errorf("%s: non-positive dissemination time", s)
		}
	}
}

// TestE5Shape pins the BAR Gossip claim: with slow nodes in the view, a
// restricted (fixed-schedule) peer choice suffers on worst-case rounds,
// while the predictive resolver — which can see link quality — keeps the
// fast population's dissemination tail short. Deterministic fixed seeds.
func TestE5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	agg := map[Strategy]time.Duration{}
	for _, s := range Strategies {
		var tail time.Duration
		for seed := int64(1); seed <= 3; seed++ {
			r := Run(ExperimentConfig{N: 16, Seed: seed, Strategy: s, SlowNodes: 4, Updates: 6})
			if r.Covered != r.Published {
				t.Fatalf("%s seed %d: coverage incomplete", s, seed)
			}
			tail += r.FastMaxDissemination
		}
		agg[s] = tail
	}
	cb := agg[StrategyPredictive]
	if cb >= agg[StrategyRandom] {
		t.Errorf("shape: crystalball fast tail %v >= random %v", cb, agg[StrategyRandom])
	}
	if cb >= agg[StrategyRestricted] {
		t.Errorf("shape: crystalball fast tail %v >= restricted %v", cb, agg[StrategyRestricted])
	}
}
