// Command mc runs the consequence-prediction model checker offline: it
// deploys a RandTree cluster, snapshots the global state at a chosen
// instant, and explores the near future against the tree safety
// properties, printing any predicted violations with their causal chains.
// This is CrystalBall's §2 machinery exposed as a standalone tool (and the
// mode of use the paper's predecessor work applied to deployed systems).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/cliutil"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/profiling"
	"crystalchoice/internal/sm"
)

// main delegates to run so deferred profile writers flush before exit.
func main() { os.Exit(run()) }

func run() int {
	n := flag.Int("n", 15, "number of tree nodes")
	seed := flag.Int64("seed", 1, "simulation seed")
	at := flag.Duration("at", 5*time.Second, "virtual time of the snapshot")
	x := explore.NewExplorer(0)
	flag.IntVar(&x.Depth, "depth", 6, "consequence-prediction chain depth")
	flag.IntVar(&x.MaxStates, "budget", 8192, "max handler executions")
	inject := flag.Bool("inject-cycle", false, "inject a forged parent-cycle message before exploring")
	flag.IntVar(&x.FaultBudget, "faults", 0, "fault-transition budget per explored path (crash/recover/reset as explorer actions)")
	flag.BoolVar(&x.PartitionFaults, "partitions", false, "also explore network-partition transitions (drawn from the fault budget)")
	flag.IntVar(&x.Workers, "workers", 1, "exploration worker pool ceiling (the active set sizes itself to the work)")
	strategyName := flag.String("strategy", "chaindfs", "exploration strategy: chaindfs | bfs")
	flag.IntVar(&x.MaxFrontier, "maxfrontier", 0, "cap on pending frontier units, dropping the newest incoming ones (0 = unbounded)")
	classesJSON := flag.String("classes-json", "", "write the violation classes (digest, count, shortest witness) as JSON to this path for cross-run diffing")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the exploration; past it the report is partial and marked truncated (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()

	if err := cliutil.FirstErr(
		cliutil.Positive("depth", x.Depth),
		cliutil.Positive("workers", x.Workers),
		cliutil.Positive("budget", x.MaxStates),
		cliutil.NonNegative("faults", x.FaultBudget),
		cliutil.NonNegative("maxfrontier", x.MaxFrontier),
		cliutil.Requires("partitions", x.PartitionFaults, "-faults > 0", x.FaultBudget > 0),
	); err != nil {
		fmt.Fprintf(os.Stderr, "mc: %v\n", err)
		flag.Usage()
		return 2
	}
	if *n < 3 {
		fmt.Fprintln(os.Stderr, "mc: need -n >= 3")
		flag.Usage()
		return 2
	}
	var err error
	if x.Strategy, err = explore.ParseStrategy(*strategyName); err != nil {
		fmt.Fprintf(os.Stderr, "mc: %v\n", err)
		flag.Usage()
		return 2
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mc: %v\n", err)
		return 2
	}
	defer stopProfiles()

	// Build and run the live system up to the snapshot instant.
	e := randtree.NewExperiment(randtree.ExperimentConfig{N: *n, Seed: *seed, Setup: randtree.SetupChoiceRandom})
	e.Run(*at)
	fmt.Printf("snapshot at %v: %d/%d joined, max depth %d\n", *at, e.JoinedCount(), *n, e.MaxDepth())

	// Materialize the global state as an explorable world. The protocol's
	// periodic timers are pending on every live node; exploring their
	// firings is part of the near future. Fault exploration restarts reset
	// nodes from the freshest retained checkpoint, cold state otherwise
	// (the harness's InitialState).
	policy := explore.RandomPolicy(e.Eng.Fork())
	if x.Workers > 1 {
		policy = explore.Locked(policy)
	}
	w := e.Cluster.MaterializeWorld(policy, *seed, randtree.Timers())
	if *inject {
		// A stale JoinReply from a child: the inconsistency E8 steers
		// away from, here surfaced by offline checking instead.
		victim, child := findEdge(e)
		if victim >= 0 {
			d := e.Cluster.Node(child).Service().(randtree.TreeView).TreeDepth()
			w.InjectMessage(&sm.Msg{Src: child, Dst: victim, Kind: randtree.KindJoinReply,
				Body: randtree.JoinReply{Parent: child, Depth: d + 1}})
			fmt.Printf("injected forged JoinReply %v -> %v\n", child, victim)
		}
	}

	if *deadline > 0 {
		x.Deadline = time.Now().Add(*deadline)
	}
	x.Properties = randtree.Properties()
	r := x.Explore(w)
	fmt.Printf("explored %d states to depth %d in %v (strategy=%s workers=%d faults=%d injected=%d truncated=%v)\n",
		r.StatesExplored, r.MaxDepth, r.Elapsed.Round(time.Microsecond), x.Strategy.Name(), x.Workers, x.FaultBudget, r.FaultsInjected, r.Truncated)
	if r.FrontierDropped > 0 {
		fmt.Printf("frontier cap %d dropped %d pending unit(s)\n", x.MaxFrontier, r.FrontierDropped)
	}
	classes := r.ViolationClasses()
	if r.Safe() {
		fmt.Println("no safety violations predicted")
	} else {
		fmt.Printf("%d violation(s) predicted in %d class(es):\n", len(r.Violations), len(classes))
		for _, c := range classes {
			fmt.Printf("  %s ×%d [%s] — shortest witness at depth %d:\n", c.Property, c.Count, c.Signature, c.Witness.Depth)
			for i, step := range c.Witness.Trace {
				fmt.Printf("    %d. %s\n", i+1, step)
			}
		}
	}
	// The JSON artifact is written after the report, so a write failure
	// can never swallow the run's safety verdict.
	if *classesJSON != "" {
		if err := writeClassesJSON(*classesJSON, classes); err != nil {
			fmt.Fprintf(os.Stderr, "mc: %v\n", err)
			return 2
		}
		fmt.Printf("wrote %d violation class(es) to %s\n", len(classes), *classesJSON)
	}
	if !r.Safe() {
		return 1
	}
	return 0
}

// classRecord is the JSON shape of one violation class. Digest is
// rendered in hex: it is a stable identity across runs (ROADMAP:
// cross-run class history), so deployments can diff the predicted
// violation surface between snapshots with ordinary JSON tooling.
type classRecord struct {
	Property  string   `json:"property"`
	Signature string   `json:"signature"`
	Digest    string   `json:"digest"`
	Count     int      `json:"count"`
	Depth     int      `json:"witness_depth"`
	Witness   []string `json:"witness"`
}

// writeClassesJSON persists the run's canonical violation classes. An
// empty class list writes an empty array, so "no violations" is itself
// a diffable observation.
func writeClassesJSON(path string, classes []explore.ViolationClass) error {
	records := make([]classRecord, 0, len(classes))
	for _, c := range classes {
		records = append(records, classRecord{
			Property:  c.Property,
			Signature: c.Signature,
			Digest:    fmt.Sprintf("%016x", c.Digest),
			Count:     c.Count,
			Depth:     c.Witness.Depth,
			Witness:   c.Witness.Trace,
		})
	}
	enc, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// findEdge returns an interior node and one of its children.
func findEdge(e *randtree.Experiment) (victim, child sm.NodeID) {
	for _, node := range e.Cluster.Nodes() {
		tv := node.Service().(randtree.TreeView)
		if node.ID() == 0 || !tv.TreeJoined() {
			continue
		}
		for i := 1; i < e.Cfg.N; i++ {
			if tv.TreeHasChild(sm.NodeID(i)) {
				return node.ID(), sm.NodeID(i)
			}
		}
	}
	return -1, -1
}
