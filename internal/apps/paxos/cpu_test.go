package paxos

import (
	"testing"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/failure"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// cpuConfig is the CPU-overload setting: uniform network (so distance is
// irrelevant), 60ms of proposer CPU per proposal, commands arriving every
// 40ms — a static leader saturates (utilization 1.5) while spreading
// proposals keeps every proposer comfortably under capacity.
func cpuConfig(policy Policy, seed int64) ExperimentConfig {
	return ExperimentConfig{
		Seed:           seed,
		Policy:         policy,
		UniformLatency: 20 * time.Millisecond,
		WorkDelay:      60 * time.Millisecond,
		Interarrival:   40 * time.Millisecond,
		Commands:       30,
	}
}

// TestCPUOverloadShape pins the paper's second failure mode for static
// leaders (§3.1: "can suffer from reduced performance due to CPU overload
// or network congestion"): under proposer CPU load on a uniform network,
// both rotation and the runtime-chosen proposer must beat the static
// leader by a wide margin.
func TestCPUOverloadShape(t *testing.T) {
	mean := map[Policy]time.Duration{}
	for _, p := range Policies {
		var total time.Duration
		for seed := int64(1); seed <= 3; seed++ {
			r := Run(cpuConfig(p, seed))
			if r.Committed != r.Submitted {
				t.Fatalf("%s seed %d: committed %d/%d", p, seed, r.Committed, r.Submitted)
			}
			total += r.MeanCommit
		}
		mean[p] = total / 3
	}
	if mean[PolicyRoundRobin]*2 > mean[PolicyFixed] {
		t.Errorf("overload shape: roundrobin %v not well under half of fixed %v",
			mean[PolicyRoundRobin], mean[PolicyFixed])
	}
	if mean[PolicyPredictive]*2 > mean[PolicyFixed] {
		t.Errorf("overload shape: crystalball %v not well under half of fixed %v",
			mean[PolicyPredictive], mean[PolicyFixed])
	}
}

// TestWorkQueueSerializes checks the proposer CPU model directly: with
// WorkDelay set, proposals do not broadcast until the CPU timer drains
// them one per tick, in FIFO order.
func TestWorkQueueSerializes(t *testing.T) {
	queue := &[]*sm.Msg{}
	r := New(0, 3)
	r.WorkDelay = 50 * time.Millisecond
	env := newPump(0, queue)
	r.startProposal(env, Cmd{ID: 1})
	r.startProposal(env, Cmd{ID: 2})
	if len(*queue) != 0 {
		t.Fatalf("broadcast before CPU work: %d msgs", len(*queue))
	}
	if !env.timers[timerCPU] {
		t.Fatal("CPU timer not armed")
	}
	r.OnTimer(env, timerCPU)
	if len(*queue) != 3 {
		t.Fatalf("first drain sent %d msgs, want 3 prepares", len(*queue))
	}
	if !env.timers[timerCPU] {
		t.Fatal("CPU timer not re-armed with work remaining")
	}
	r.OnTimer(env, timerCPU)
	if len(*queue) != 6 {
		t.Fatalf("second drain sent %d msgs total, want 6", len(*queue))
	}
	// Queue empty: the timer must stop re-arming.
	delete(env.timers, timerCPU)
	r.OnTimer(env, timerCPU)
	if env.timers[timerCPU] {
		t.Fatal("CPU timer re-armed with empty queue")
	}
}

// TestPartitionHealLiveness drives the whole stack through a fault: a
// partition splits the 5 sites 2|3 while commands keep arriving. Commands
// reaching the minority side cannot commit during the partition; after
// healing, retries (ballot escalation + re-prepare) must commit everything.
func TestPartitionHealLiveness(t *testing.T) {
	const sites, commands = 5, 12
	eng := sim.NewEngine(6)
	net := transport.New(eng, netmodel.Uniform(sites, 10*time.Millisecond, 0, 0))
	cl := core.NewCluster(eng, net, core.Config{
		NewResolver: func(*core.Node) core.Resolver { return &core.RoundRobin{} },
	})
	for i := 0; i < sites; i++ {
		cl.AddNode(sm.NodeID(i), New(sm.NodeID(i), sites))
	}
	cl.Start()

	var sched failure.Schedule
	sched.PartitionAt(300*time.Millisecond, []sm.NodeID{0, 1}, []sm.NodeID{2, 3, 4})
	sched.HealAt(2200 * time.Millisecond)
	sched.Install(cl)

	for c := 0; c < commands; c++ {
		c := c
		origin := sm.NodeID(c % sites)
		eng.Schedule(time.Duration(c)*100*time.Millisecond, func() {
			cl.Node(origin).Inject(KindSubmit, Submit{Cmd: Cmd{ID: c, Origin: origin, SubmitAt: time.Duration(eng.Now())}}, 48)
		})
	}
	eng.RunFor(commands*100*time.Millisecond + 40*time.Second)

	committed := 0
	for i := 0; i < sites; i++ {
		committed += len(cl.Node(sm.NodeID(i)).Service().(*Replica).DecidedAt)
	}
	if committed != commands {
		t.Fatalf("committed %d/%d after partition heal", committed, commands)
	}
	// Agreement must hold across the fault.
	decided := map[int]int{}
	for i := 0; i < sites; i++ {
		rep := cl.Node(sm.NodeID(i)).Service().(*Replica)
		for inst, v := range rep.decided.All {
			if prev, ok := decided[inst]; ok && prev != v.ID {
				t.Fatalf("disagreement on instance %d: %d vs %d", inst, prev, v.ID)
			}
			decided[inst] = v.ID
		}
	}
}
