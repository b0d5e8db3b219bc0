package paxos

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// pumpEnv collects sends into a shared queue keyed by destination.
type pumpEnv struct {
	id     sm.NodeID
	queue  *[]*sm.Msg
	rng    *rand.Rand
	timers map[string]bool
	choose func(c sm.Choice) int
}

func newPump(id sm.NodeID, queue *[]*sm.Msg) *pumpEnv {
	return &pumpEnv{id: id, queue: queue, rng: rand.New(rand.NewSource(int64(id) + 1)), timers: map[string]bool{}}
}

func (e *pumpEnv) ID() sm.NodeID       { return e.id }
func (e *pumpEnv) Now() time.Duration  { return 0 }
func (e *pumpEnv) Rand() *rand.Rand    { return e.rng }
func (e *pumpEnv) Logf(string, ...any) {}
func (e *pumpEnv) Send(dst sm.NodeID, kind string, body any, size int) {
	*e.queue = append(*e.queue, &sm.Msg{Src: e.id, Dst: dst, Kind: kind, Body: body, Size: size})
}
func (e *pumpEnv) SendDatagram(dst sm.NodeID, kind string, body any, size int) {
	e.Send(dst, kind, body, size)
}
func (e *pumpEnv) SetTimer(name string, d time.Duration) { e.timers[name] = true }
func (e *pumpEnv) CancelTimer(name string)               { delete(e.timers, name) }
func (e *pumpEnv) Choose(c sm.Choice) int {
	if e.choose != nil {
		return e.choose(c)
	}
	return 0
}

// cluster builds n replicas wired through one message queue.
func cluster(n int) ([]*Replica, []*pumpEnv, *[]*sm.Msg) {
	queue := &[]*sm.Msg{}
	reps := make([]*Replica, n)
	envs := make([]*pumpEnv, n)
	for i := 0; i < n; i++ {
		reps[i] = New(sm.NodeID(i), n)
		envs[i] = newPump(sm.NodeID(i), queue)
	}
	return reps, envs, queue
}

// pump delivers queued messages FIFO until quiescent.
func pump(reps []*Replica, envs []*pumpEnv, queue *[]*sm.Msg) {
	for len(*queue) > 0 {
		m := (*queue)[0]
		*queue = (*queue)[1:]
		reps[m.Dst].OnMessage(envs[m.Dst], m)
	}
}

// pumpShuffled delivers queued messages in random order, optionally
// duplicating some (Paxos must tolerate both).
func pumpShuffled(reps []*Replica, envs []*pumpEnv, queue *[]*sm.Msg, rng *rand.Rand, dupFrac float64) {
	for len(*queue) > 0 {
		i := rng.Intn(len(*queue))
		m := (*queue)[i]
		*queue = append((*queue)[:i], (*queue)[i+1:]...)
		reps[m.Dst].OnMessage(envs[m.Dst], m)
		if rng.Float64() < dupFrac {
			reps[m.Dst].OnMessage(envs[m.Dst], m) // duplicate delivery
		}
	}
}

func TestHappyPathDecides(t *testing.T) {
	reps, envs, queue := cluster(3)
	cmd := Cmd{ID: 1, Origin: 0}
	envs[0].choose = func(c sm.Choice) int { return 0 } // propose at self
	reps[0].OnMessage(envs[0], &sm.Msg{Src: 0, Dst: 0, Kind: KindSubmit, Body: Submit{Cmd: cmd}})
	pump(reps, envs, queue)
	for i, r := range reps {
		v, ok := r.decided.Get(0)
		if !ok {
			t.Fatalf("replica %d did not learn instance 0", i)
		}
		if v.ID != 1 {
			t.Fatalf("replica %d decided %+v", i, v)
		}
	}
	if _, ok := reps[0].DecidedAt[1]; !ok {
		t.Fatal("origin did not record commit time")
	}
}

func TestSubmitForwardsToChosenProposer(t *testing.T) {
	reps, envs, queue := cluster(3)
	envs[1].choose = func(c sm.Choice) int {
		if c.Name != "px.proposer" || c.N != 3 {
			t.Fatalf("unexpected choice %+v", c)
		}
		return 2
	}
	reps[1].OnMessage(envs[1], &sm.Msg{Src: 1, Dst: 1, Kind: KindSubmit, Body: Submit{Cmd: Cmd{ID: 9, Origin: 1}}})
	pump(reps, envs, queue)
	// Instance must belong to node 2's space (inst % 3 == 2).
	if reps[2].NextSlot != 1 {
		t.Fatal("chosen proposer did not open a proposal")
	}
	for _, r := range reps {
		if r.DecidedCount() != 1 {
			t.Fatalf("decision count = %d", r.DecidedCount())
		}
		for inst := range r.decided.All {
			if inst%3 != 2 {
				t.Fatalf("instance %d not owned by proposer 2", inst)
			}
		}
	}
}

func TestInstanceSpacePartitioned(t *testing.T) {
	r := New(2, 5)
	env := newPump(2, &[]*sm.Msg{})
	r.startProposal(env, Cmd{ID: 1})
	r.startProposal(env, Cmd{ID: 2})
	var open []int
	for inst := -5; inst < 20; inst++ {
		if _, ok := r.prop(inst); ok {
			open = append(open, inst)
		}
	}
	if len(open) != 2 || open[0] != 2 || open[1] != 7 || r.props.Len() != 2 {
		t.Fatalf("open instances = %v (%d proposals), want [2 7] in node 2's space", open, r.props.Len())
	}
}

func TestAcceptorRejectsLowerBallot(t *testing.T) {
	r := New(1, 3)
	env := newPump(1, &[]*sm.Msg{})
	r.OnMessage(env, &sm.Msg{Src: 0, Kind: KindPrepare, Body: Prepare{Inst: 0, Ballot: 5}})
	if len(*env.queue) != 1 {
		t.Fatal("no promise for first prepare")
	}
	*env.queue = nil
	r.OnMessage(env, &sm.Msg{Src: 2, Kind: KindPrepare, Body: Prepare{Inst: 0, Ballot: 3}})
	if len(*env.queue) != 0 {
		t.Fatal("promised a lower ballot after a higher one")
	}
	// Accept below promise also rejected.
	r.OnMessage(env, &sm.Msg{Src: 2, Kind: KindAccept, Body: Accept{Inst: 0, Ballot: 3, Val: Cmd{ID: 7}}})
	if len(*env.queue) != 0 {
		t.Fatal("accepted below promised ballot")
	}
}

func TestProposerAdoptsHighestAccepted(t *testing.T) {
	// Acceptors 1 and 2 already accepted {ID:7} under ballot 2 for
	// instance 0. A new proposer (node 0, retrying with ballot 4) must
	// adopt {ID:7} rather than its own command.
	reps, envs, queue := cluster(3)
	prior := Cmd{ID: 7, Origin: 2}
	for _, i := range []int{1, 2} {
		reps[i].OnMessage(envs[i], &sm.Msg{Src: 2, Kind: KindAccept, Body: Accept{Inst: 0, Ballot: 2, Val: prior}})
	}
	*queue = nil // drop the accepted replies; proposer 2 is gone
	reps[0].startProposal(envs[0], Cmd{ID: 99, Origin: 0})
	// First ballot (1) will be rejected by acceptors who promised 2;
	// drive the retry timer to raise the ballot.
	pump(reps, envs, queue)
	if _, decided := reps[0].decided.Get(0); !decided {
		reps[0].OnTimer(envs[0], retryTimer(0))
		pump(reps, envs, queue)
	}
	v, ok := reps[0].decided.Get(0)
	if !ok {
		t.Fatal("instance 0 not decided after retry")
	}
	if v.ID != 7 {
		t.Fatalf("proposer overrode previously accepted value: decided %+v", v)
	}
}

func TestRetryRaisesBallot(t *testing.T) {
	r := New(1, 3)
	env := newPump(1, &[]*sm.Msg{})
	r.startProposal(env, Cmd{ID: 1})
	inst := 1 // slot 0 * 3 + id 1
	ballot := func() int {
		p, _ := r.prop(inst)
		return p.Ballot
	}
	first := ballot()
	*env.queue = nil
	r.OnTimer(env, retryTimer(inst))
	if ballot() != first+3 {
		t.Fatalf("ballot after retry = %d, want %d", ballot(), first+3)
	}
	if len(*env.queue) != 3 {
		t.Fatal("retry did not re-prepare to all peers")
	}
}

func TestLearnIsIdempotentAndRecordsOriginLatency(t *testing.T) {
	r := New(0, 3)
	env := newPump(0, &[]*sm.Msg{})
	cmd := Cmd{ID: 4, Origin: 0, SubmitAt: time.Second}
	r.OnMessage(env, &sm.Msg{Src: 1, Kind: KindLearn, Body: Learn{Inst: 3, Val: cmd}})
	r.OnMessage(env, &sm.Msg{Src: 2, Kind: KindLearn, Body: Learn{Inst: 3, Val: cmd}})
	if r.DecidedCount() != 1 {
		t.Fatal("duplicate learn created extra decisions")
	}
	if _, ok := r.DecidedAt[4]; !ok {
		t.Fatal("origin latency not recorded")
	}
	// Foreign-origin decisions do not pollute DecidedAt.
	r.OnMessage(env, &sm.Msg{Src: 1, Kind: KindLearn, Body: Learn{Inst: 4, Val: Cmd{ID: 5, Origin: 2}}})
	if _, ok := r.DecidedAt[5]; ok {
		t.Fatal("recorded latency for foreign command")
	}
}

// A clone is a snapshot in both directions: the containers, DecidedAt,
// PendingCmds and workQueue are shared until written, and a write on
// either side stays on that side.
func TestCloneDeep(t *testing.T) {
	r := New(0, 3)
	r.WorkDelay = time.Millisecond
	env := newPump(0, &[]*sm.Msg{})
	r.onSubmit(env, Cmd{ID: 1, Origin: 0}) // pending, proposed as instance 0, queued for CPU
	r.OnTimer(env, timerCPU)               // phase 1 goes out, the queue empties
	r.onSubmit(env, Cmd{ID: 2, Origin: 0}) // pending and queued
	r.onLearn(env, Learn{Inst: 4, Val: Cmd{ID: 4, Origin: 0}})
	c := r.Clone().(*Replica)
	before := r.Digest()

	// Writes to the clone: every container, DecidedAt and both queues.
	c.onPromise(env, 1, Promise{Inst: 0, Ballot: 1, AccBallot: -1})
	c.onPrepare(env, 1, Prepare{Inst: 7, Ballot: 2})
	c.onLearn(env, Learn{Inst: 9, Val: Cmd{ID: 1, Origin: 0}})
	c.onSubmit(env, Cmd{ID: 3, Origin: 0})
	if p, _ := r.prop(0); p.Promises.len() != 0 {
		t.Fatal("clone shares proposals")
	}
	if r.acc.Len() != 0 || r.DecidedCount() != 1 || len(r.DecidedAt) != 1 {
		t.Fatal("clone shares acceptor records, decisions or DecidedAt")
	}
	if len(r.PendingCmds) != 2 || len(r.workQueue) != 1 || len(c.PendingCmds) != 2 || len(c.workQueue) != 2 {
		t.Fatalf("clone shares the queues: original %d pending %d queued, clone %d pending %d queued",
			len(r.PendingCmds), len(r.workQueue), len(c.PendingCmds), len(c.workQueue))
	}
	if r.Digest() != before || r.Digest() != r.digestFull() {
		t.Fatal("writing the clone moved the original's digest")
	}

	// Writes to the original right after a fork, as the live runtime does.
	snap := r.Clone().(*Replica)
	r.onAccept(env, 2, Accept{Inst: 3, Ballot: 3, Val: Cmd{ID: 3}})
	r.onLearn(env, Learn{Inst: 5, Val: Cmd{ID: 5, Origin: 0}})
	r.OnTimer(env, retryTimer(0))
	r.onLearn(env, Learn{Inst: 6, Val: Cmd{ID: 2, Origin: 0}})
	r.onSubmit(env, Cmd{ID: 8, Origin: 0})
	if p, _ := snap.prop(0); p.Ballot != 1 {
		t.Fatal("snapshot saw the original's retry")
	}
	if _, kept := snap.PendingCmds[2]; !kept || len(snap.PendingCmds) != 2 || len(snap.workQueue) != 1 {
		t.Fatal("snapshot saw the original's later submissions or learns in its queues")
	}
	if snap.acc.Len() != 0 || snap.DecidedCount() != 1 || len(snap.DecidedAt) != 1 {
		t.Fatal("snapshot saw the original's later writes")
	}
	if snap.Digest() != before || c.Digest() != c.digestFull() || r.Digest() != r.digestFull() {
		t.Fatal("maintained digest diverged from the oracle after forks")
	}
}

// Property (agreement): across shuffled, duplicated deliveries of any
// number of commands, no two replicas decide different values for the
// same instance, and every instance decided anywhere carries a submitted
// command.
func TestAgreementProperty(t *testing.T) {
	f := func(seed int64, nCmds uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		reps, envs, queue := cluster(5)
		cmds := int(nCmds%6) + 1
		submitted := map[int]bool{}
		for c := 0; c < cmds; c++ {
			origin := rng.Intn(5)
			proposer := rng.Intn(5)
			envs[origin].choose = func(sm.Choice) int { return proposer }
			submitted[c] = true
			reps[origin].OnMessage(envs[origin], &sm.Msg{
				Src: sm.NodeID(origin), Dst: sm.NodeID(origin),
				Kind: KindSubmit, Body: Submit{Cmd: Cmd{ID: c, Origin: sm.NodeID(origin)}},
			})
			pumpShuffled(reps, envs, queue, rng, 0.2)
		}
		decided := map[int]int{} // inst -> cmd ID
		for _, r := range reps {
			for inst, v := range r.decided.All {
				if prev, seen := decided[inst]; seen && prev != v.ID {
					return false // disagreement!
				}
				decided[inst] = v.ID
				if !submitted[v.ID] {
					return false // decided a phantom command
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- integration (experiment E7) ---

func TestAllPoliciesCommitEverything(t *testing.T) {
	for _, p := range Policies {
		r := Run(ExperimentConfig{Seed: 3, Policy: p, Commands: 20})
		if r.Committed != r.Submitted {
			t.Errorf("%s: committed %d/%d", p, r.Committed, r.Submitted)
		}
		if r.MeanCommit <= 0 {
			t.Errorf("%s: non-positive commit latency", p)
		}
	}
}

// TestRunRejectsSitesBeyondLatencyMatrix: more sites than the default
// 5-site WAN has rows, with no InterSite or UniformLatency, must fail with a
// message naming Sites and the matrix size, not index past the matrix.
func TestRunRejectsSitesBeyondLatencyMatrix(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "Sites = 8") || !strings.Contains(msg, "5×5") {
			t.Fatalf("got panic %q, want one naming Sites = 8 and the 5×5 matrix", msg)
		}
	}()
	Run(ExperimentConfig{Sites: 8, Seed: 1, Policy: PolicyFixed})
}

func TestFixedPolicyLoadsLeaderOnly(t *testing.T) {
	r := Run(ExperimentConfig{Seed: 3, Policy: PolicyFixed, Commands: 10})
	for id, load := range r.ProposerLoad {
		if id != 0 && load != 0 {
			t.Fatalf("fixed policy let node %v propose %d commands", id, load)
		}
	}
	if r.ProposerLoad[0] != 10 {
		t.Fatalf("leader load = %d, want 10", r.ProposerLoad[0])
	}
}

// TestE7Shape pins the Mencius story: on a WAN where the static leader is
// poorly placed, rotating proposers improves commit latency and the
// predictive proposer choice improves it further (paper §3.1: "expose the
// choice of a proposer and let the runtime pick the best proposer").
func TestE7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	mean := map[Policy]time.Duration{}
	for _, p := range Policies {
		var total time.Duration
		for seed := int64(1); seed <= 3; seed++ {
			r := Run(ExperimentConfig{Seed: seed, Policy: p})
			if r.Committed != r.Submitted {
				t.Fatalf("%s seed %d: committed %d/%d", p, seed, r.Committed, r.Submitted)
			}
			total += r.MeanCommit
		}
		mean[p] = total / 3
	}
	if !(mean[PolicyPredictive] < mean[PolicyRoundRobin] && mean[PolicyRoundRobin] < mean[PolicyFixed]) {
		t.Errorf("shape violated: crystalball %v, roundrobin %v, fixed %v",
			mean[PolicyPredictive], mean[PolicyRoundRobin], mean[PolicyFixed])
	}
}

// agedReplica returns node 0 of 5 after `decided` instances: it proposed
// every fifth, accepted and learned all of them.
func agedReplica(decided int) (*Replica, *pumpEnv) { return agedReplicaAt(0, decided) }

func agedReplicaAt(id sm.NodeID, decided int) (*Replica, *pumpEnv) {
	r := New(id, 5)
	env := newPump(id, &[]*sm.Msg{})
	for inst := 0; inst < decided; inst++ {
		cmd := Cmd{ID: inst, Origin: sm.NodeID(inst % 5)}
		if inst%5 == int(id) {
			r.startProposal(env, cmd)
		}
		r.onAccept(env, 1, Accept{Inst: inst, Ballot: 1, Val: cmd})
		r.onLearn(env, Learn{Inst: inst, Val: cmd})
		*env.queue = (*env.queue)[:0]
	}
	return r, env
}

// Cost-shape gate (make bench-alloc): a fork and its digest cost the same
// whatever the log's length, and the first write after a fork copies one
// trie path, not the log.
func TestForkCostIndependentOfLogSize(t *testing.T) {
	var sink uint64
	forkAndDigest := func(r *Replica) float64 {
		return testing.AllocsPerRun(100, func() { sink += r.Clone().Digest() })
	}
	forkAndLearn := func(r *Replica, env *pumpEnv) float64 {
		next := r.DecidedCount()
		return testing.AllocsPerRun(100, func() {
			c := r.Clone().(*Replica)
			c.onLearn(env, Learn{Inst: next, Val: Cmd{ID: next, Origin: 3}})
			sink += c.Digest()
		})
	}
	young, youngEnv := agedReplica(64)
	old, oldEnv := agedReplica(4096)
	if old.Digest() != old.digestFull() {
		t.Fatal("aged replica's maintained digest is off")
	}
	if a, b := forkAndDigest(young), forkAndDigest(old); a != b {
		t.Errorf("Clone+Digest allocates %v times at 64 decided, %v at 4096: not O(1)", a, b)
	}
	// 64 entries make a trie of depth 2 (a branch over 8-entry leaves
	// reaches 256 keys), 4096 of depth 3 (two branch levels reach 8 192):
	// one more node to copy, and nothing else.
	a, b := forkAndLearn(young, youngEnv), forkAndLearn(old, oldEnv)
	if b-a > 1 || b > 8 {
		t.Errorf("Clone+onLearn allocates %v times at 64 decided, %v at 4096: want O(trie depth)", a, b)
	}
	t.Logf("allocs: Clone+Digest %v, Clone+onLearn %v (64 decided) / %v (4096 decided)", forkAndDigest(old), a, b)
}

// Cost-shape gate (make bench-alloc): a proposer owns every N-th
// instance, so its proposals must be keyed by slot for the trie's 8-entry
// leaves to fill; keyed by instance, a leaf holds one or two of them and
// a proposal retains about 560 B. Slot keys retain about 120 B.
func TestProposalBytesDense(t *testing.T) {
	const proposals = 4096
	r := New(2, 5)
	env := newPump(2, &[]*sm.Msg{})
	for i := 0; i < proposals; i++ {
		r.startProposal(env, Cmd{ID: i, Origin: 2})
		*env.queue = (*env.queue)[:0]
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	with := live()
	if r.props.Len() != proposals {
		t.Fatalf("proposals = %d, want %d", r.props.Len(), proposals)
	}
	r.props = sm.IntMap[propState]{}
	per := float64(with-live()) / proposals
	runtime.KeepAlive(r)
	runtime.KeepAlive(env)
	if per > 160 {
		t.Errorf("a proposal retains %.0f B at %d proposals, want <= 160 B", per, proposals)
	}
	t.Logf("retained bytes per proposal: %.0f B (propState %d B)", per, unsafe.Sizeof(propState{}))
}

// Cost-shape gate (make bench-alloc): checking agreement after one
// decision looks up the entries of the one leaf the decision wrote, on
// each replica, whatever the log's length — and allocates nothing, which
// the from-scratch Check, the fallback, does not either.
func TestAgreementStepIndependentOfLogSize(t *testing.T) {
	prop := AgreementProperty()
	// decide returns a world of five replicas aged to `decided` instances
	// and its fork in which node 2 has learned the next one.
	decide := func(decided int) (parent, child *explore.World) {
		parent = explore.NewWorld(explore.FirstPolicy, 1)
		for id := sm.NodeID(0); id < 5; id++ {
			r, _ := agedReplicaAt(id, decided)
			parent.AddNode(id, r)
		}
		parent.InjectMessage(&sm.Msg{Src: 0, Dst: 2, Kind: KindLearn,
			Body: Learn{Inst: decided, Val: Cmd{ID: decided, Origin: 0}}})
		child = parent.Clone()
		child.DeliverMessage(0)
		return parent, child
	}
	// lookups counts the Gets one Step makes: every entry the touched log
	// does not share with its pre-image, on every replica.
	lookups := func(parent, child *explore.World) (n int) {
		now, was := child.Service(2).(*Replica), parent.Service(2).(*Replica)
		now.decided.Diff(&was.decided, func(int, Cmd) bool {
			n += len(child.Nodes())
			return true
		})
		return n
	}
	for _, into := range []int{0, 5} { // the decision opens a leaf / lands among 5 neighbours
		youngP, youngC := decide(64 + into)
		oldP, oldC := decide(4096 + into)
		a, b := lookups(youngP, youngC), lookups(oldP, oldC)
		if a != b || a != 5*(into+1) {
			t.Errorf("Step makes %d lookups at %d decided, %d at %d: want %d at both", a, 64+into, b, 4096+into, 5*(into+1))
		}
		for _, c := range []struct{ parent, child *explore.World }{{youngP, youngC}, {oldP, oldC}} {
			if !prop.Step(c.child, 2, c.parent.Service(2)) || !prop.Check(c.child) {
				t.Fatalf("agreement does not hold after learning instance %d", c.child.Service(2).(*Replica).DecidedCount()-1)
			}
			if n := testing.AllocsPerRun(100, func() { prop.Step(c.child, 2, c.parent.Service(2)) }); n != 0 {
				t.Errorf("Step allocates %v times at %d decided", n, c.parent.Service(2).(*Replica).DecidedCount())
			}
		}
		if n := testing.AllocsPerRun(10, func() { prop.Check(oldC) }); n != 0 {
			t.Errorf("Check allocates %v times at %d decided", n, 4096+into)
		}
	}
	// A conflicting decision is caught by both forms.
	parent, _ := decide(64)
	parent.InjectMessage(&sm.Msg{Src: 1, Dst: 3, Kind: KindLearn, Body: Learn{Inst: 64, Val: Cmd{ID: -1, Origin: 1}}})
	split := parent.Clone()
	split.DeliverMessage(0)
	split.DeliverMessage(0)
	if prop.Check(split) || prop.Step(split, 3, parent.Service(3)) {
		t.Error("two commands decided for instance 64 and agreement still holds")
	}
}

// Explorer workers fork one frozen replica concurrently (World.ownService
// with Workers > 1) and run handlers on their forks. Run with -race.
func TestConcurrentClonesOfFrozenReplica(t *testing.T) {
	frozen, fenv := agedReplica(300)
	frozen.WorkDelay = time.Millisecond
	for id := 1000; id < 1003; id++ { // three commands pending, their proposals queued
		frozen.onSubmit(fenv, Cmd{ID: id, Origin: 0})
	}
	want := frozen.digestFull()
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := newPump(0, &[]*sm.Msg{})
			c := frozen.Clone().(*Replica)
			for i := 0; i < 50; i++ {
				inst := 300 + i*g
				c.onPrepare(env, 1, Prepare{Inst: inst, Ballot: g})
				c.onLearn(env, Learn{Inst: inst, Val: Cmd{ID: inst, Origin: 0}})
				c.OnTimer(env, retryTimer(295))
			}
			c.onSubmit(env, Cmd{ID: 2000 + g, Origin: 0})
			c.OnTimer(env, timerCPU)
			c.onLearn(env, Learn{Inst: 9000 + g, Val: Cmd{ID: 1000, Origin: 0}})
			if len(c.PendingCmds) != 3 || len(c.workQueue) != 3 {
				t.Errorf("fork %d: %d pending, %d queued, want 3 and 3", g, len(c.PendingCmds), len(c.workQueue))
			}
			if c.Digest() != c.digestFull() {
				t.Errorf("fork %d: maintained digest diverged", g)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if frozen.Digest() != want || frozen.digestFull() != want {
				t.Error("original changed while its forks were written")
				return
			}
		}
	}()
	wg.Wait()
	if len(frozen.DecidedAt) != 60 || frozen.DecidedCount() != 300 || len(frozen.PendingCmds) != 3 || len(frozen.workQueue) != 3 {
		t.Fatalf("original has %d commit times, %d decisions, %d pending, %d queued after the forks",
			len(frozen.DecidedAt), frozen.DecidedCount(), len(frozen.PendingCmds), len(frozen.workQueue))
	}
}
