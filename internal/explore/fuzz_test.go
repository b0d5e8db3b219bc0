package explore

import (
	"reflect"
	"testing"

	"crystalchoice/internal/sm"
)

// FuzzExploreConfig drives Explorer.Explore across random small
// configurations — strategy × workers × fault budget × depth × seed — and
// asserts the engine's hard invariants: no panic, the state budget is
// respected (with at most one overshoot per worker plus the root check),
// fault paths never exceed the fault budget, and Workers<=1 runs are
// deterministic. Run with `go test -fuzz=FuzzExploreConfig` to search;
// the seed corpus runs on every plain `go test`.
func FuzzExploreConfig(f *testing.F) {
	f.Add(byte(0), uint8(1), uint8(0), uint8(3), int64(1), false)
	f.Add(byte(1), uint8(4), uint8(1), uint8(4), int64(7), true)
	f.Add(byte(0), uint8(0), uint8(2), uint8(6), int64(-3), false)
	f.Add(byte(0), uint8(2), uint8(2), uint8(5), int64(99), true)
	f.Add(byte(1), uint8(1), uint8(1), uint8(4), int64(13), false)
	f.Add(byte(1), uint8(4), uint8(2), uint8(5), int64(21), true)
	f.Fuzz(func(t *testing.T, stratSel, workers, faults, depth uint8, seed int64, partitions bool) {
		const maxStates = 512
		nWorkers := int(workers % 5) // 0..4; <=1 runs inline, deterministically
		run := func() *Report {
			w := NewWorld(FirstPolicy, seed)
			for i := 0; i < 4; i++ {
				w.AddNode(NodeID(i), &rejoiner{id: NodeID(i), joined: i%2 == 0})
				w.SetTimerPending(NodeID(i), "rj.tick")
			}
			w.InjectMessage(&sm.Msg{Src: 2, Dst: 0, Kind: "join"})
			w.InjectMessage(&sm.Msg{Src: 3, Dst: 1, Kind: "welcome"})
			w.Initial = func(id NodeID) sm.Service { return &rejoiner{id: id} }
			x := NewExplorer(1 + int(depth%7))
			x.MaxStates = maxStates
			x.Workers = nWorkers
			x.FaultBudget = int(faults % 4)
			x.PartitionFaults = partitions
			x.Strategy = ChainDFS{}
			if stratSel%2 == 1 {
				x.Strategy = BFS{}
			}
			// Beside the always-failing property, two with a Step under the
			// referee, one of them reading down flags: whatever the
			// configuration makes of the delta bookkeeping, the engine's
			// verdict must be Check's.
			heard := func(s sm.Service) bool { return s.(*rejoiner).heard > 0 }
			audited, _ := AuditSteps([]Property{atMostOne("one-heard", heard), staysUp("heard-up", heard)})
			x.Properties = append([]Property{{Name: "never", Check: func(*World) bool { return false }}}, audited...)
			return x.Explore(w)
		}
		r := run()
		if bad := auditFailures(r); len(bad) > 0 {
			t.Fatalf("Step verdict differs from Check: %v", bad[0])
		}
		effWorkers := nWorkers
		if effWorkers < 1 {
			effWorkers = 1
		}
		if r.StatesExplored > maxStates+effWorkers+1 {
			t.Fatalf("budget blown: %d states explored with MaxStates=%d workers=%d",
				r.StatesExplored, maxStates, effWorkers)
		}
		budget := int(faults % 4)
		for _, v := range r.Violations {
			if n := faultSteps(v.Trace); n > budget {
				t.Fatalf("fault budget blown: %d fault steps on %v (budget %d)", n, v.Trace, budget)
			}
		}
		if budget == 0 && r.FaultsInjected != 0 {
			t.Fatalf("faults injected with zero budget: %d", r.FaultsInjected)
		}
		if nWorkers <= 1 {
			stripElapsed(r) // timing stamps are the only nondeterministic fields
			if again := run(); !reflect.DeepEqual(r, stripElapsed(again)) {
				t.Fatalf("Workers<=1 run not deterministic:\nfirst  %+v\nsecond %+v", r, again)
			}
		}
	})
}
