package crystalchoice

import (
	"runtime"
	"testing"
	"time"

	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/model"
	"crystalchoice/internal/sm"
)

// agedPaxosModel returns replica 0 of five and its predictive model, every
// replica having learned `decided` instances and replica 0 holding a
// checkpoint of each of the others.
func agedPaxosModel(decided int) (*paxos.Replica, *model.Model) {
	const sites = 5
	m := model.New(0)
	var self *paxos.Replica
	for id := sm.NodeID(0); id < sites; id++ {
		r := paxos.New(id, sites)
		for inst := 0; inst < decided; inst++ {
			r.OnMessage(benchEnv{}, &sm.Msg{Src: 1, Dst: id, Kind: paxos.KindLearn,
				Body: paxos.Learn{Inst: inst, Val: paxos.Cmd{ID: inst, Origin: sm.NodeID(inst % sites)}}})
		}
		if id == 0 {
			self = r
		} else {
			m.State.Update(id, r, time.Second, 1)
		}
	}
	return self, m
}

// sendLog is an Env that keeps what a handler sends.
type sendLog struct {
	benchEnv
	id  sm.NodeID
	out []*sm.Msg
}

func (e *sendLog) ID() sm.NodeID { return e.id }
func (e *sendLog) Send(dst sm.NodeID, kind string, body any, size int) {
	e.out = append(e.out, &sm.Msg{Src: e.id, Dst: dst, Kind: kind, Body: body, Size: size})
}

// replayChain runs, with no explorer around them, the handlers a ChainDFS
// lookahead to the given depth runs for m: a clone of the destination's
// state handles m, and each message that sends is followed in turn. It
// returns the number of handler runs.
func replayChain(svcs []sm.Service, m *sm.Msg, depth int) int {
	if depth == 0 {
		return 0
	}
	env := &sendLog{id: m.Dst}
	before := svcs[m.Dst]
	svcs[m.Dst] = before.Clone()
	svcs[m.Dst].OnMessage(env, m)
	runs := 1
	for _, next := range env.out {
		runs += replayChain(svcs, next, depth-1)
	}
	svcs[m.Dst] = before
	return runs
}

// TestLookaheadSteadyStateAllocs is the allocation gate of one decision
// (make bench-alloc): a steering-shaped lookahead — clone the live replica,
// fork the model's standing world around it, inject a client submission,
// explore three levels with the previous root as Prior — allocates what its
// handlers allocate (replica forks, the trie paths their first writes copy,
// messages) plus a fixed few objects of its own, and nothing that grows
// with the state budget or with how much the replicas have decided. Before
// the model kept a standing world and the explorer its run scratch, the
// engine's share was ~33 KB: two zeroed arena chunks, a seen set sized by
// the budget, four peer clones and a world digested from nothing. The
// handlers' own share has a ceiling too: with 8-entry trie leaves a
// proposal write copies under 1 KB of leaf, where a 32-entry leaf was
// 3.3 KB and put the handlers at ~34 KB per lookahead.
func TestLookaheadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool operations; the pin is meaningless under it")
	}
	const depth, runs = 3, 200
	const maxObjects, maxOwnBytes, maxHandlerBytes = 72, 4 << 10, 16 << 10
	perRun := func(fn func()) (objects, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(runs, fn)
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun runs fn once more, unmeasured
	}
	measure := func(decided, maxStates int) (objects, ownBytes, handlerBytes float64) {
		self, m := agedPaxosModel(decided)
		submit := &sm.Msg{Src: 0, Dst: 0, Kind: paxos.KindSubmit, Body: paxos.Submit{Cmd: paxos.Cmd{ID: decided, Origin: 0}}}
		x := explore.NewExplorer(depth)
		x.MaxStates = maxStates
		x.Properties = []explore.Property{paxos.AgreementProperty()}
		seed, states := int64(0), 0
		lookahead := func() {
			w := m.BuildWorld(self.Clone(), 2*time.Second, explore.FirstPolicy, seed)
			seed++
			cp := *submit
			w.InjectMessage(&cp)
			r := x.Explore(w)
			if !r.Safe() {
				t.Fatalf("lookahead predicts %v", r.Violations)
			}
			x.Prior, states = w, r.StatesExplored
		}
		for i := 0; i < 20; i++ { // warm the free lists
			lookahead()
		}
		objects, bytes := perRun(lookahead)

		svcs := []sm.Service{self}
		for _, id := range m.State.Known() {
			e, _ := m.State.Get(id)
			svcs = append(svcs, e.State)
		}
		handlerRuns := 0
		_, handlerBytes = perRun(func() { handlerRuns = replayChain(svcs, submit, depth) })
		if states != handlerRuns+1 || states < 8 {
			t.Fatalf("the lookahead checked %d states, the replay ran %d handlers: not the same chains", states, handlerRuns)
		}
		t.Logf("decided=%d MaxStates=%d: %d states, %.0f objects, %.0f B per lookahead, %.0f B of them its handlers'",
			decided, maxStates, states, objects, bytes, handlerBytes)
		return objects, bytes - handlerBytes, handlerBytes
	}
	base, baseOwn, handlerBytes := measure(64, 128)
	if base > maxObjects || baseOwn > maxOwnBytes {
		t.Errorf("a lookahead allocates %.0f objects and %.0f B beyond its handlers': budget %d objects, %d B", base, baseOwn, maxObjects, maxOwnBytes)
	}
	if handlerBytes > maxHandlerBytes {
		t.Errorf("a lookahead's handlers allocate %.0f B at 64 decided: budget %d B", handlerBytes, maxHandlerBytes)
	}
	for _, c := range []struct{ decided, maxStates int }{{64, 4096}, {4096, 128}} {
		if objects, own, _ := measure(c.decided, c.maxStates); objects > base+1 || own > maxOwnBytes {
			t.Errorf("decided=%d MaxStates=%d: %.0f objects and %.0f B beyond the handlers', against %.0f objects, %.0f B at 64 decided and MaxStates 128",
				c.decided, c.maxStates, objects, own, base, baseOwn)
		}
	}
}
