// The Section-4 case study end to end: build a 31-node random overlay
// tree, fail the largest subtree, let it rejoin, and watch how each setup
// recovers. Prints a depth histogram per phase for the Choice-CrystalBall
// setup. The summary table across all three setups, with the paper's
// reference row, is cmd/randtree's.
//
// Run with:
//
//	go run ./examples/randtree
//	go run ./cmd/randtree        # the table
package main

import (
	"fmt"
	"sort"
	"time"

	"crystalchoice/internal/apps/randtree"
)

func printHistogram(e *randtree.Experiment, phase string) {
	counts := map[int]int{}
	for _, d := range e.Depths() {
		counts[d]++
	}
	levels := make([]int, 0, len(counts))
	for l := range counts {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	fmt.Printf("  %s: ", phase)
	for _, l := range levels {
		fmt.Printf("L%d×%d ", l, counts[l])
	}
	fmt.Printf("(max depth %d)\n", e.MaxDepth())
}

func main() {
	fmt.Println("case study: Choice-CrystalBall, 31 nodes, Internet-like network")
	e := randtree.NewExperiment(randtree.ExperimentConfig{
		N:     31,
		Seed:  4,
		Setup: randtree.SetupChoiceCrystalBall,
	})
	e.Run(31*200*time.Millisecond + 10*time.Second)
	printHistogram(e, "after join  ")

	failed := e.FailLargestSubtree()
	fmt.Printf("  failing subtree of %d nodes...\n", len(failed))
	e.Run(3 * time.Second)
	e.RestartFailed(failed)
	e.Run(time.Duration(len(failed))*200*time.Millisecond/4 + 15*time.Second)
	printHistogram(e, "after rejoin")

	fmt.Println("\nall three setups, with the paper's numbers: go run ./cmd/randtree")
}
