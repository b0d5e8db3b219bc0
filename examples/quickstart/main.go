// Quickstart: a minimal service on the crystalchoice framework.
//
// The service is a two-node ping-pong that exposes one decision — how long
// to wait before replying — instead of hard-coding it. We run it twice:
// once with the Random resolver and once with CrystalBall's predictive
// resolver maximizing an objective that prefers low round-trip counts to
// be in flight (so it learns to answer promptly).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// pinger sends a ping every 100ms and counts completed round trips.
// ponger answers each ping after an exposed delay choice.
type player struct {
	ID         sm.NodeID
	Peer       sm.NodeID
	RoundTrips int
	InFlight   int
}

func (p *player) Init(env sm.Env) {
	if p.ID == 0 {
		env.SetTimer("ping", 100*time.Millisecond)
	}
}

func (p *player) OnTimer(env sm.Env, name string) {
	switch name {
	case "ping":
		p.InFlight++
		env.Send(p.Peer, "ping", nil, 16)
		env.SetTimer("ping", 100*time.Millisecond)
	case "reply":
		env.Send(p.Peer, "pong", nil, 16)
	}
}

func (p *player) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case "ping":
		// The exposed choice: reply immediately, after 50ms, or after
		// 200ms. A hard-coded service would bury this policy here.
		i := env.Choose(sm.Choice{
			Name:  "reply-delay",
			N:     3,
			Label: func(i int) string { return []string{"now", "50ms", "200ms"}[i] },
		})
		delay := []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond}[i]
		if delay == 0 {
			env.Send(m.Src, "pong", nil, 16)
			return
		}
		p.InFlight++ // a deferred reply keeps the exchange open
		env.SetTimer("reply", delay)
	case "pong":
		p.RoundTrips++
		if p.InFlight > 0 {
			p.InFlight--
		}
	}
}

func (p *player) Clone() sm.Service { c := *p; return &c }
func (p *player) Digest() uint64 {
	return sm.NewHasher().WriteNode(p.ID).WriteInt(int64(p.RoundTrips)).WriteInt(int64(p.InFlight)).Sum()
}

func run(name string, newResolver func(*core.Node) core.Resolver, objective func(*core.Node) explore.Objective) {
	eng := sim.NewEngine(7)
	net := transport.New(eng, netmodel.Uniform(2, 10*time.Millisecond, 0, 0))
	cl := core.NewCluster(eng, net, core.Config{
		NewResolver:        newResolver,
		ObjectiveFor:       objective,
		CheckpointInterval: 200 * time.Millisecond,
	})
	cl.AddNode(0, &player{ID: 0, Peer: 1})
	cl.AddNode(1, &player{ID: 1, Peer: 0})
	cl.Start()
	eng.RunFor(10 * time.Second)
	p := cl.Node(0).Service().(*player)
	fmt.Printf("%-12s round trips completed in 10s: %d\n", name, p.RoundTrips)
}

func main() {
	fmt.Println("quickstart: exposing a choice and letting the runtime resolve it")
	run("random", func(*core.Node) core.Resolver { return core.Random{} }, nil)
	run("crystalball",
		func(*core.Node) core.Resolver { return core.NewPredictive(3) },
		func(*core.Node) explore.Objective {
			// Objective: as few exchanges open as possible — i.e., answer
			// promptly. The predictive resolver discovers "reply now".
			return explore.ObjectiveFunc{ObjectiveName: "prompt", Fn: func(w *explore.World) float64 {
				open := 0
				for _, id := range w.Nodes() {
					open += w.Service(id).(*player).InFlight
				}
				return -float64(open)
			}}
		})
}
