package paxos

import (
	"testing"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// cloneCounter is a live replica counting the clones taken of it. Its
// clones are bare replicas, so the forks a lookahead takes of a clone
// count nothing.
type cloneCounter struct {
	*Replica
	clones int
}

func (c *cloneCounter) Clone() sm.Service { c.clones++; return c.Replica.Clone() }

// acceptorRig is five replicas under resolver r, node 0 counting its
// clones, with warm instances from farInst on accepted and learned at
// node 0. No handler it runs makes a choice, so rigs under different
// resolvers stay in lockstep.
func acceptorRig(r core.Resolver) (*sim.Engine, *core.Cluster, *cloneCounter) {
	return rigWith(core.Config{NewResolver: func(*core.Node) core.Resolver { return r }})
}

// rigWith is acceptorRig under the runtime configuration cfg.
func rigWith(cfg core.Config) (*sim.Engine, *core.Cluster, *cloneCounter) {
	eng := sim.NewEngine(1)
	cl := core.NewCluster(eng, transport.New(eng, netmodel.Uniform(5, time.Millisecond, 0, 0)), cfg)
	live := &cloneCounter{Replica: New(0, 5)}
	cl.AddNode(0, live)
	for i := sm.NodeID(1); i < 5; i++ {
		cl.AddNode(i, New(i, 5))
	}
	cl.Start()
	for inst := farInst; inst < farInst+warm; inst++ {
		acceptAndLearn(eng, cl, inst)
	}
	return eng, cl, live
}

// farInst is where the rigs' instances start, far above the ones the
// replicas' own proposals open; warm is how many they decide up front.
const farInst, warm = 1 << 20, 64

// acceptAndLearn has node 1 send node 0 an Accept and then a Learn of
// inst, and runs both handlers and node 1's handling of the reply.
func acceptAndLearn(eng *sim.Engine, cl *core.Cluster, inst int) {
	val := Cmd{ID: inst, Origin: 3}
	cl.Node(1).SendApp(0, KindAccept, Accept{Inst: inst, Ballot: 2, Val: val}, 48)
	cl.Node(1).SendApp(0, KindLearn, Learn{Inst: inst, Val: val}, 40)
	eng.RunFor(10 * time.Millisecond)
}

// Cost-shape gate (make bench-alloc): a warm Predictive replica, which
// declares its choice sites (sm.ChoiceSites), takes no pre-event clone for
// an Accept or a Learn, so the handlers write its tries in place: the
// dispatch allocates exactly what it does under a resolver that never
// clones. A Submit, which reaches the proposer choice, takes exactly one.
func TestPredictiveDispatchWritesInPlace(t *testing.T) {
	engP, clP, liveP := acceptorRig(core.NewPredictive(2))
	engR, clR, liveR := acceptorRig(core.Random{})
	if liveP.clones != 0 || liveR.clones != 0 {
		t.Fatalf("warm-up took %d clones under Predictive, %d under Random; want none", liveP.clones, liveR.clones)
	}
	instP, instR := farInst+warm, farInst+warm
	allocsP := testing.AllocsPerRun(200, func() { acceptAndLearn(engP, clP, instP); instP++ })
	allocsR := testing.AllocsPerRun(200, func() { acceptAndLearn(engR, clR, instR); instR++ })
	t.Logf("Accept+Learn dispatch: %v allocs under Predictive, %v under Random; %d clones", allocsP, allocsR, liveP.clones)
	if liveP.clones != 0 {
		t.Errorf("%d Accept+Learn pairs took %d pre-event clones, want none", instP-farInst-warm, liveP.clones)
	}
	if allocsP != allocsR {
		t.Errorf("an Accept+Learn allocates %v times under Predictive, %v under Random: want the same, no clone and no trie path copy", allocsP, allocsR)
	}
	if got, want := liveP.DecidedCount(), instP-farInst; got != want {
		t.Fatalf("node 0 decided %d instances, want %d", got, want)
	}

	SubmitCmd(clP, 0, 7)
	engP.RunFor(time.Second)
	if liveP.clones != 1 {
		t.Errorf("a Submit and the handlers it caused took %d clones, want exactly 1", liveP.clones)
	}
	if _, done := liveP.DecidedAt[7]; !done {
		t.Errorf("submitted command not learned at its origin")
	}
}

// steeringRig is acceptorRig with node 0's four peers checkpointed into
// its model, and execution steering over the agreement property on every
// node when steer is set.
func steeringRig(steer bool) (*sim.Engine, *core.Cluster, *cloneCounter) {
	return rigWith(core.Config{
		NewResolver:        func(*core.Node) core.Resolver { return core.Random{} },
		CheckpointInterval: 50 * time.Millisecond,
		Steering:           steer,
		Properties:         []explore.Property{AgreementProperty()},
	})
}

// Cost-shape gate (make bench-alloc): a safe steering check on a warm
// paxos node allocates the service clones its lookahead takes — the live
// replica's, and the fork's that the delivery's handler writes — the
// objects those handlers allocate, and nothing of the engine's: the
// Report is the steering explorer's own, lent back (Explore), the world
// shells, their slot and in-flight containers, the run context and the
// previous lookahead root all come back from the free lists, and a
// fault-free chain digests no world. The check here delivers a Learn node
// 0 already holds, so that neither the live handler nor the lookahead's
// writes anything and the check's whole cost is its two clones. The
// second half logs what the check's clone costs the live handlers that
// follow it: an Accept or a Learn writes a trie the clone shares, so it
// copies the path it writes (measured for the next lever on the steering
// path; not gated).
func TestSteeringCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool operations; the pin is meaningless under it")
	}
	_, clOn, liveOn := steeringRig(true)
	_, clOff, _ := steeringRig(false)
	if got := len(clOn.Node(0).Model().State.Known()); got != 4 {
		t.Fatalf("node 0 models %d peers after warm-up, want 4", got)
	}
	dup := Learn{Inst: farInst, Val: Cmd{ID: farInst, Origin: 3}} // decided during warm-up
	learnDup := func(cl *core.Cluster) func() {
		return func() { cl.Node(0).Inject(KindLearn, dup, 40) }
	}
	checks, states := clOn.Node(0).Stats().SteeringChecks, clOn.Node(0).Stats().LookaheadStates
	clonesBefore := liveOn.clones
	on := testing.AllocsPerRun(200, learnDup(clOn))
	off := testing.AllocsPerRun(200, learnDup(clOff))
	checks = clOn.Node(0).Stats().SteeringChecks - checks
	states = clOn.Node(0).Stats().LookaheadStates - states
	if checks != 201 || liveOn.clones-clonesBefore != 201 {
		t.Fatalf("201 injections ran %d steering checks and took %d live clones, want 201 each", checks, liveOn.clones-clonesBefore)
	}
	if states != 2*checks {
		t.Fatalf("the checks visited %d states, want 2 each: the start world and the delivery", states)
	}
	if clOn.Stats().Steered != 0 {
		t.Fatalf("a duplicate Learn was steered away")
	}
	liveClone := testing.AllocsPerRun(200, func() { liveOn.Replica.Clone() })
	fork := liveOn.Replica.Clone()
	forkClone := testing.AllocsPerRun(200, func() { fork.Clone() })
	engine := on - off - liveClone - forkClone
	t.Logf("steering check: %v objects (%v with steering, %v without); clones %v + %v; engine %v",
		on-off, on, off, liveClone, forkClone, engine)
	if engine != 0 {
		t.Errorf("a safe steering check allocates %v objects beyond its two clones, want 0", engine)
	}

	// What the check's clone costs the live handler after it: the same
	// fresh Accept or Learn on a replica cloned just before, and on one
	// that was not.
	for _, kind := range []string{KindAccept, KindLearn} {
		inst := 1 << 24
		msg := func() *sm.Msg {
			inst++
			if kind == KindAccept {
				return &sm.Msg{Src: 1, Dst: 0, Kind: kind, Body: Accept{Inst: inst, Ballot: 2, Val: Cmd{ID: inst, Origin: 3}}}
			}
			return &sm.Msg{Src: 1, Dst: 0, Kind: kind, Body: Learn{Inst: inst, Val: Cmd{ID: inst, Origin: 3}}}
		}
		warmLive := func() *Replica {
			_, _, live := acceptorRig(core.Random{})
			return live.Replica
		}
		env := newPump(0, &[]*sm.Msg{})
		r := warmLive()
		inPlace := testing.AllocsPerRun(200, func() { m := msg(); r.OnMessage(env, m) })
		r = warmLive()
		cloned := testing.AllocsPerRun(200, func() { m := msg(); r.Clone(); r.OnMessage(env, m) })
		t.Logf("live %s handler: %v objects after a clone (the clone's own %v included), %v without",
			kind, cloned, liveClone, inPlace)
	}
}
