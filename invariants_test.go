// Cross-application property tests: every protocol service in the
// repository must satisfy the contracts the CrystalBall machinery depends
// on — Clone is a behavioral snapshot, and Digest is a stable function of
// state. Violations would silently corrupt lookahead worlds and the
// explorer's state deduplication, so these invariants are checked across
// randomized operation sequences for all five services.
package crystalchoice

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/sm"
)

// nullEnv drives services without a runtime; effects are discarded but
// choices and randomness are deterministic per seed.
type nullEnv struct {
	id  sm.NodeID
	rng *rand.Rand
}

func (e *nullEnv) ID() sm.NodeID                            { return e.id }
func (e *nullEnv) Now() time.Duration                       { return 0 }
func (e *nullEnv) Send(sm.NodeID, string, any, int)         {}
func (e *nullEnv) SendDatagram(sm.NodeID, string, any, int) {}
func (e *nullEnv) SetTimer(string, time.Duration)           {}
func (e *nullEnv) CancelTimer(string)                       {}
func (e *nullEnv) Rand() *rand.Rand                         { return e.rng }
func (e *nullEnv) Logf(string, ...any)                      {}
func (e *nullEnv) Choose(c sm.Choice) int {
	if c.N <= 1 {
		return 0
	}
	return e.rng.Intn(c.N)
}

// opGen produces a random protocol message for a service under test.
type opGen func(rng *rand.Rand) *sm.Msg

// timerGen names one of the service's own timers to fire.
type timerGen func(rng *rand.Rand) string

func fixedTimers(names ...string) timerGen {
	return func(rng *rand.Rand) string { return names[rng.Intn(len(names))] }
}

func randtreeOps(rng *rand.Rand) *sm.Msg {
	src := sm.NodeID(rng.Intn(8))
	switch rng.Intn(4) {
	case 0:
		return &sm.Msg{Src: src, Kind: randtree.KindJoin, Body: randtree.Join{Joiner: sm.NodeID(rng.Intn(8))}}
	case 1:
		return &sm.Msg{Src: src, Kind: randtree.KindJoinReply, Body: randtree.JoinReply{Parent: src, Depth: rng.Intn(6) + 1}}
	case 2:
		return &sm.Msg{Src: src, Kind: randtree.KindSummary, Body: randtree.Summary{Size: rng.Intn(10), DepthBelow: rng.Intn(4)}}
	default:
		return &sm.Msg{Src: src, Kind: randtree.KindHeartbeat, Body: randtree.Heartbeat{Depth: rng.Intn(6) + 1}}
	}
}

func gossipOps(rng *rand.Rand) *sm.Msg {
	src := sm.NodeID(rng.Intn(8))
	haves := func() []int {
		var out []int
		for u := 0; u < 6; u++ {
			if rng.Intn(2) == 0 {
				out = append(out, u)
			}
		}
		return out
	}
	switch rng.Intn(3) {
	case 0:
		return &sm.Msg{Src: src, Kind: gossip.KindPublish, Body: gossip.Publish{Update: rng.Intn(6)}}
	case 1:
		return &sm.Msg{Src: src, Kind: gossip.KindDigest, Body: gossip.Digest{Have: haves()}}
	default:
		return &sm.Msg{Src: src, Kind: gossip.KindDelta, Body: gossip.Delta{Updates: haves(), Have: haves()}}
	}
}

func dissemOps(rng *rand.Rand) *sm.Msg {
	src := sm.NodeID(rng.Intn(6))
	switch rng.Intn(3) {
	case 0:
		return &sm.Msg{Src: src, Kind: dissem.KindAnnounce, Body: dissem.Announce{Blocks: []int{rng.Intn(8)}}}
	case 1:
		return &sm.Msg{Src: src, Kind: dissem.KindRequest, Body: dissem.Request{Block: rng.Intn(8)}}
	default:
		return &sm.Msg{Src: src, Kind: dissem.KindPiece, Body: dissem.Piece{Block: rng.Intn(8)}}
	}
}

func paxosOps(rng *rand.Rand) *sm.Msg {
	src := sm.NodeID(rng.Intn(5))
	inst := rng.Intn(10)
	bal := rng.Intn(8) + 1
	cmd := paxos.Cmd{ID: rng.Intn(20), Origin: src}
	switch rng.Intn(6) {
	case 0:
		return &sm.Msg{Src: src, Kind: paxos.KindSubmit, Body: paxos.Submit{Cmd: cmd}}
	case 1:
		return &sm.Msg{Src: src, Kind: paxos.KindPrepare, Body: paxos.Prepare{Inst: inst, Ballot: bal}}
	case 2:
		return &sm.Msg{Src: src, Kind: paxos.KindPromise, Body: paxos.Promise{Inst: inst, Ballot: bal, AccBallot: -1}}
	case 3:
		return &sm.Msg{Src: src, Kind: paxos.KindAccept, Body: paxos.Accept{Inst: inst, Ballot: bal, Val: cmd}}
	case 4:
		return &sm.Msg{Src: src, Kind: paxos.KindAccepted, Body: paxos.Accepted{Inst: inst, Ballot: bal}}
	default:
		return &sm.Msg{Src: src, Kind: paxos.KindLearn, Body: paxos.Learn{Inst: inst, Val: cmd}}
	}
}

// paxosTimers fires the retry of an instance node 1 of 5 can own, the
// resubmission of a command paxosOps can submit, or the proposer's CPU.
func paxosTimers(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("px.retry.%d", rng.Intn(4)*5+1)
	case 1:
		return fmt.Sprintf("px.resubmit.%d", rng.Intn(20))
	default:
		return "px.cpu"
	}
}

// checkServiceInvariants runs the shared property battery. Messages from
// gen and, one time in four, a timer from timers drive the service; a
// service whose Digest is maintained incrementally passes the
// from-scratch recomputation as oracle (nil otherwise).
func checkServiceInvariants(t *testing.T, name string, mk func() sm.Service, gen opGen, timers timerGen, oracle func(sm.Service) uint64) {
	t.Helper()
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		svc := mk()
		env := &nullEnv{id: 1, rng: rand.New(rand.NewSource(seed + 1))}
		svc.Init(env)

		// Twin copy driven with identical inputs must track the original.
		twin := svc.Clone()
		twinEnv := &nullEnv{id: 1, rng: rand.New(rand.NewSource(seed + 1))}

		ops := int(nOps%24) + 1
		for i := 0; i < ops; i++ {
			if timers != nil && rng.Intn(4) == 0 {
				name := timers(rng)
				svc.OnTimer(env, name)
				twin.OnTimer(twinEnv, name)
			} else {
				m := gen(rng)
				svc.OnMessage(env, m)
				cp := *m
				twin.OnMessage(twinEnv, &cp)
			}
			// 5. A maintained digest equals its recomputation after every op.
			if oracle != nil && svc.Digest() != oracle(svc) {
				return false
			}
		}
		// 1. Digest is a pure function: recomputing does not change it.
		if svc.Digest() != svc.Digest() {
			return false
		}
		// 2. Clone has the same digest as the original.
		c := svc.Clone()
		if c.Digest() != svc.Digest() {
			return false
		}
		// 3. The twin, fed identical inputs and randomness, converged to
		// the same state.
		if twin.Digest() != svc.Digest() {
			return false
		}
		// 4. Evolving the clone must not disturb the original.
		before := svc.Digest()
		cEnv := &nullEnv{id: 1, rng: rand.New(rand.NewSource(seed + 2))}
		for i := 0; i < 5; i++ {
			c.OnMessage(cEnv, gen(rng))
			if timers != nil {
				c.OnTimer(cEnv, timers(rng))
			}
			if oracle != nil && c.Digest() != oracle(c) {
				return false
			}
		}
		return svc.Digest() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestServiceInvariantsRandTreeBaseline(t *testing.T) {
	checkServiceInvariants(t, "randtree-baseline",
		func() sm.Service { return randtree.NewBaseline(1, 0) }, randtreeOps, fixedTimers("rt.hbSend"), nil)
}

func TestServiceInvariantsRandTreeChoice(t *testing.T) {
	checkServiceInvariants(t, "randtree-choice",
		func() sm.Service { return randtree.NewChoice(1, 0) }, randtreeOps, fixedTimers("rt.hbSend"), nil)
}

func TestServiceInvariantsGossip(t *testing.T) {
	// The oracle also fails a held slice that is unsorted, has duplicates
	// or is copied by Clone.
	oracle := func(s sm.Service) uint64 { return gossip.DigestOracle(s.(*gossip.Peer)) }
	checkServiceInvariants(t, "gossip",
		func() sm.Service { return gossip.New(1, []sm.NodeID{0, 2, 3}) }, gossipOps, fixedTimers("g.round"), oracle)
}

func TestServiceInvariantsDissem(t *testing.T) {
	checkServiceInvariants(t, "dissem",
		func() sm.Service { return dissem.New(1, []sm.NodeID{0, 2, 3}, 8, 1024, false) }, dissemOps, fixedTimers("d.tick"), nil)
}

func TestServiceInvariantsPaxos(t *testing.T) {
	// WorkDelay queues proposals behind px.cpu, so that timer has work.
	mk := func() sm.Service {
		r := paxos.New(1, 5)
		r.WorkDelay = time.Millisecond
		return r
	}
	oracle := func(s sm.Service) uint64 { return paxos.DigestOracle(s.(*paxos.Replica)) }
	checkServiceInvariants(t, "paxos", mk, paxosOps, paxosTimers, oracle)
}

func trackerOps(rng *rand.Rand) *sm.Msg {
	src := sm.NodeID(rng.Intn(8))
	if rng.Intn(2) == 0 {
		return &sm.Msg{Src: src, Kind: tracker.KindRegister, Body: tracker.Register{}}
	}
	return &sm.Msg{Src: src, Kind: tracker.KindGetPeers, Body: tracker.GetPeers{K: rng.Intn(4) + 1}}
}

func TestServiceInvariantsTracker(t *testing.T) {
	checkServiceInvariants(t, "tracker",
		func() sm.Service { return tracker.New(9) }, trackerOps, nil, nil)
}
