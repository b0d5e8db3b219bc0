// Property tests for the maintained (incremental) world digest: across all
// five applications, arbitrary interleavings of deliver / fire / inject /
// remove / clone / crash / recover / partition must keep World.Digest
// equal to the from-scratch recomputation World.DigestFull, and forks must
// never perturb their ancestors' digests.
package crystalchoice

import (
	"math/rand"
	"testing"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// digestApp bundles one app's world construction and message generator for
// the property walk.
type digestApp struct {
	name    string
	mkWorld func() *explore.World
	mkMsg   func(rng *rand.Rand) *sm.Msg
	// initial, when set, is installed as the world's cold-restart hook so
	// the walk's recover steps exercise state replacement too.
	initial func(id sm.NodeID) sm.Service
}

func digestApps() []digestApp {
	return []digestApp{
		{
			name: "randtree",
			mkWorld: func() *explore.World {
				w := explore.NewWorld(explore.FirstPolicy, 1)
				env := &benchEnv{}
				for i := 0; i < 7; i++ {
					svc := randtree.NewChoice(sm.NodeID(i), 0)
					svc.Init(env)
					w.AddNode(sm.NodeID(i), svc)
					w.SetTimerPending(sm.NodeID(i), "rt.hbSend")
				}
				w.InjectMessage(&sm.Msg{Src: 100, Dst: 0, Kind: randtree.KindJoin,
					Body: randtree.Join{Joiner: 100}})
				return w
			},
			mkMsg: func(rng *rand.Rand) *sm.Msg {
				j := sm.NodeID(100 + rng.Intn(8))
				return &sm.Msg{Src: j, Dst: sm.NodeID(rng.Intn(7)), Kind: randtree.KindJoin,
					Body: randtree.Join{Joiner: j}}
			},
			initial: func(id sm.NodeID) sm.Service { return randtree.NewChoice(id, 0) },
		},
		{
			name: "gossip",
			mkWorld: func() *explore.World {
				w := explore.NewWorld(explore.FirstPolicy, 2)
				view := []sm.NodeID{0, 1, 2, 3}
				for i := 0; i < 4; i++ {
					w.AddNode(sm.NodeID(i), gossip.New(sm.NodeID(i), view))
					w.SetTimerPending(sm.NodeID(i), "g.round")
				}
				w.InjectMessage(&sm.Msg{Src: 9, Dst: 0, Kind: gossip.KindPublish, Body: gossip.Publish{Update: 1}})
				return w
			},
			mkMsg: func(rng *rand.Rand) *sm.Msg {
				return &sm.Msg{Src: sm.NodeID(rng.Intn(4)), Dst: sm.NodeID(rng.Intn(4)),
					Kind: gossip.KindPublish, Body: gossip.Publish{Update: rng.Intn(4)}}
			},
			initial: func(id sm.NodeID) sm.Service { return gossip.New(id, []sm.NodeID{0, 1, 2, 3}) },
		},
		{
			name: "paxos",
			mkWorld: func() *explore.World {
				w := explore.NewWorld(explore.FirstPolicy, 3)
				for i := 0; i < 3; i++ {
					w.AddNode(sm.NodeID(i), paxos.New(sm.NodeID(i), 3))
				}
				w.InjectMessage(&sm.Msg{Src: 0, Dst: 0, Kind: paxos.KindSubmit,
					Body: paxos.Submit{Cmd: paxos.Cmd{ID: 0, Origin: 0}}})
				return w
			},
			mkMsg: func(rng *rand.Rand) *sm.Msg {
				id := sm.NodeID(rng.Intn(3))
				return &sm.Msg{Src: id, Dst: id, Kind: paxos.KindSubmit,
					Body: paxos.Submit{Cmd: paxos.Cmd{ID: rng.Intn(4), Origin: id}}}
			},
		},
		{
			name: "dissem",
			mkWorld: func() *explore.World {
				w := explore.NewWorld(explore.FirstPolicy, 4)
				swarm := []sm.NodeID{0, 1, 2, 3}
				for i := 0; i < 4; i++ {
					w.AddNode(sm.NodeID(i), dissem.New(sm.NodeID(i), swarm, 4, 1024, i == 0))
					w.SetTimerPending(sm.NodeID(i), "d.tick")
				}
				w.InjectMessage(&sm.Msg{Src: 0, Dst: 1, Kind: dissem.KindAnnounce,
					Body: dissem.Announce{Blocks: []int{0, 1, 2, 3}}})
				return w
			},
			mkMsg: func(rng *rand.Rand) *sm.Msg {
				return &sm.Msg{Src: sm.NodeID(rng.Intn(4)), Dst: sm.NodeID(rng.Intn(4)),
					Kind: dissem.KindRequest, Body: dissem.Request{Block: rng.Intn(4)}}
			},
		},
		{
			name: "tracker",
			mkWorld: func() *explore.World {
				w := explore.NewWorld(explore.FirstPolicy, 5)
				w.AddNode(0, tracker.New(0))
				swarm := []sm.NodeID{1, 2, 3}
				for i := 1; i < 4; i++ {
					w.AddNode(sm.NodeID(i), dissem.New(sm.NodeID(i), swarm, 4, 1024, i == 1))
				}
				w.InjectMessage(&sm.Msg{Src: 1, Dst: 0, Kind: tracker.KindRegister, Body: tracker.Register{}})
				return w
			},
			mkMsg: func(rng *rand.Rand) *sm.Msg {
				src := sm.NodeID(1 + rng.Intn(3))
				if rng.Intn(2) == 0 {
					return &sm.Msg{Src: src, Dst: 0, Kind: tracker.KindRegister, Body: tracker.Register{}}
				}
				return &sm.Msg{Src: src, Dst: 0, Kind: tracker.KindGetPeers, Body: tracker.GetPeers{K: 1 + rng.Intn(3)}}
			},
		},
	}
}

// pendingTimer picks a random pending (node, timer) pair, if any.
func pendingTimer(w *explore.World, rng *rand.Rand) (sm.NodeID, string, bool) {
	type pt struct {
		id   sm.NodeID
		name string
	}
	var all []pt
	for _, id := range w.Nodes() {
		for _, name := range w.PendingTimers(id) {
			all = append(all, pt{id, name})
		}
	}
	if len(all) == 0 {
		return 0, "", false
	}
	p := all[rng.Intn(len(all))]
	return p.id, p.name, true
}

// TestDigestPropertyAllApps is the cross-app equivalence walk: after every
// operation — the fault transitions crash, recover, and partition/heal
// included — the maintained digest must equal the full recomputation, and
// mutating a fork must never move an ancestor's digest.
func TestDigestPropertyAllApps(t *testing.T) {
	for _, app := range digestApps() {
		app := app
		t.Run(app.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 10; trial++ {
				w := app.mkWorld()
				w.Initial = app.initial
				nodes := w.Nodes()
				pick := func() sm.NodeID { return nodes[rng.Intn(len(nodes))] }
				var ancestors []*explore.World
				var ancestorDigs []uint64
				for step := 0; step < 80; step++ {
					switch op := rng.Intn(10); {
					case op <= 1 && len(w.Inflight) > 0: // bias toward delivering
						w.DeliverMessage(rng.Intn(len(w.Inflight)))
					case op == 2:
						if id, name, ok := pendingTimer(w, rng); ok {
							w.FireTimer(id, name)
						}
					case op == 3:
						w.InjectMessage(app.mkMsg(rng))
					case op == 4 && len(w.Inflight) > 0:
						w.RemoveInflight(rng.Intn(len(w.Inflight)))
					case op == 5:
						ancestors = append(ancestors, w)
						ancestorDigs = append(ancestorDigs, w.Digest())
						w = w.Clone()
					case op == 6:
						w.Crash(pick())
					case op == 7:
						w.Recover(pick(), nil)
					case op == 8:
						w.IsolateNode(pick())
					case op == 9:
						if rng.Intn(2) == 0 {
							w.HealNode(pick())
						} else {
							w.PartitionPair(pick(), pick())
						}
					}
					if got, want := w.Digest(), w.DigestFull(); got != want {
						t.Fatalf("trial %d step %d: incremental digest %#x != full recompute %#x",
							trial, step, got, want)
					}
				}
				for i, a := range ancestors {
					if got := a.Digest(); got != ancestorDigs[i] {
						t.Fatalf("trial %d: ancestor %d digest drifted %#x -> %#x after fork mutations",
							trial, i, ancestorDigs[i], got)
					}
					if got, want := a.Digest(), a.DigestFull(); got != want {
						t.Fatalf("trial %d: ancestor %d incremental %#x != full %#x",
							trial, i, got, want)
					}
				}
			}
		})
	}
}
