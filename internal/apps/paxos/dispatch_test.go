package paxos

import (
	"testing"
	"time"

	"crystalchoice/internal/core"
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
	eng := sim.NewEngine(1)
	cl := core.NewCluster(eng, transport.New(eng, netmodel.Uniform(5, time.Millisecond, 0, 0)),
		core.Config{NewResolver: func(*core.Node) core.Resolver { return r }})
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
