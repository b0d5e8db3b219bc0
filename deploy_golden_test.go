// The deployment golden pins what every app's deployment does, through both
// doors into it: the scenario lab (a fuzzed spec per app, variant, seed and
// steering setting: its violation classes, compiled event count and final
// world digest) and the apps' own experiment harnesses (E2, E3, E5–E9 at
// seed 1 per policy, at the sizes the apps' tests use). A refactor of how
// deployments are wired must leave testdata/deploy_golden.txt byte-identical.
package crystalchoice

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/core"
	"crystalchoice/internal/scenario"
)

const deployGoldenPath = "testdata/deploy_golden.txt"

// scenarioVariants lists every variant name a spec may give each app.
var scenarioVariants = map[string][]string{
	"randtree": {"", "choice-random", "baseline", "crystalball", "choice-crystalball"},
	"gossip":   {"", "random", "restricted"},
	"dissem":   {"", "random", "rarest"},
	"paxos":    {"", "fixed", "roundrobin"},
	"tracker":  {"", "random", "locality"},
}

// scenarioGoldenDump runs the fuzzed specs, seeds 1–8 per app, variant and
// steering setting, and renders one line per run.
func scenarioGoldenDump(t *testing.T) string {
	var b strings.Builder
	for _, app := range scenario.Apps {
		for _, variant := range scenarioVariants[app] {
			for _, steering := range []bool{false, true} {
				if steering && app == "dissem" {
					continue // no safety property to steer over
				}
				for seed := int64(1); seed <= 8; seed++ {
					spec := scenario.Generate(scenario.Spec{App: app, Variant: variant, Steering: steering}, seed)
					r, err := scenario.Run(spec, scenario.Options{})
					if err != nil {
						t.Fatalf("%s/%q seed %d steering=%v: %v", app, variant, seed, steering, err)
					}
					fmt.Fprintf(&b, "scenario app=%s variant=%q steering=%v seed=%d events=%d classes=%s panics=%d digest=%016x\n",
						app, variant, steering, seed, r.Events, r.ClassString(), r.PanicCount, r.Digest)
				}
			}
		}
	}
	return b.String()
}

// harnessGoldenDump runs the experiment harnesses at seed 1 per policy and
// renders their results without wall-clock fields.
func harnessGoldenDump() string {
	var b strings.Builder
	for _, setup := range randtree.Setups {
		r := randtree.RunSection4(randtree.ExperimentConfig{N: 31, Seed: 1, Setup: setup})
		r.Stats.SteerLatency, r.Stats.ResolveLatency = core.LatencyHist{}, core.LatencyHist{}
		fmt.Fprintf(&b, "E2/E3 %+v\n", r)
	}
	r := randtree.RunSection4(randtree.ExperimentConfig{N: 31, Seed: 1, Setup: randtree.SetupChoiceCrystalBall, Runtime: core.Config{CheckpointInterval: 50 * time.Millisecond}})
	r.Stats.SteerLatency, r.Stats.ResolveLatency = core.LatencyHist{}, core.LatencyHist{}
	fmt.Fprintf(&b, "E3 checkpoint-50ms %+v\n", r)
	for _, s := range gossip.Strategies {
		fmt.Fprintf(&b, "E5 %+v\n", gossip.Run(gossip.ExperimentConfig{N: 16, Seed: 1, Strategy: s, SlowNodes: 4, Updates: 6}))
		fmt.Fprintf(&b, "E5 small %+v\n", gossip.Run(gossip.ExperimentConfig{N: 12, Seed: 1, Strategy: s, Updates: 4}))
	}
	fmt.Fprintf(&b, "E5 dynamic %+v\n", gossip.Run(gossip.ExperimentConfig{N: 16, Seed: 1, Strategy: gossip.StrategyRandom, SlowNodes: 2, Updates: 6, Dynamic: true}))
	for _, set := range append(append([]dissem.Setting{}, dissem.Settings...), dissem.SettingSharedSeedUplink) {
		for _, s := range dissem.Strategies {
			fmt.Fprintf(&b, "E6 %+v\n", dissem.Run(dissem.ExperimentConfig{N: 10, Blocks: 16, Seed: 1, Strategy: s, Setting: set}))
		}
	}
	for _, p := range paxos.Policies {
		fmt.Fprintf(&b, "E7 %+v\n", paxos.Run(paxos.ExperimentConfig{Seed: 1, Policy: p}))
		fmt.Fprintf(&b, "E7 overload %+v\n", paxos.Run(paxos.ExperimentConfig{
			Seed: 1, Policy: p,
			UniformLatency: 20 * time.Millisecond,
			WorkDelay:      60 * time.Millisecond,
			Interarrival:   40 * time.Millisecond,
			Commands:       30,
		}))
	}
	fmt.Fprintf(&b, "E7 classcache %+v\n", paxos.Run(paxos.ExperimentConfig{Seed: 1, Policy: paxos.PolicyPredictive, Runtime: core.Config{LookaheadClassCache: true}}))
	for _, on := range []bool{false, true} {
		fmt.Fprintf(&b, "E8 %+v\n", randtree.RunSteering(randtree.ExperimentConfig{N: 15, Seed: 1, Runtime: core.Config{Steering: on}}))
	}
	fmt.Fprintf(&b, "E8 classcache %+v\n", randtree.RunSteering(randtree.ExperimentConfig{N: 15, Seed: 1, Runtime: core.Config{
		Steering: true, LookaheadClassCache: true,
	}}))
	for _, p := range tracker.Policies {
		fmt.Fprintf(&b, "E9 %+v\n", tracker.Run(tracker.ExperimentConfig{Seed: 1, Policy: p}))
	}
	return b.String()
}

// TestDeployGolden compares both dumps with the captured file. Regenerate
// with UPDATE_DEPLOY_GOLDEN=1 only when a change to what deployments do is
// intended and understood.
func TestDeployGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every app's deployment")
	}
	got := scenarioGoldenDump(t) + harnessGoldenDump()
	if os.Getenv("UPDATE_DEPLOY_GOLDEN") != "" {
		if err := os.WriteFile(deployGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("deployment golden file rewritten")
	}
	want, err := os.ReadFile(deployGoldenPath)
	if err != nil {
		t.Fatalf("missing deployment golden file (rerun with UPDATE_DEPLOY_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("deployment output diverged at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("deployment output diverged: %d lines, want %d", len(gl), len(wl))
	}
}
